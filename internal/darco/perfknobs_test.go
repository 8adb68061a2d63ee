package darco

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestStreamBatchKnobDistinctCacheEntries audits the memo-key rule for
// perf-affecting knobs: two jobs identical except for
// timing.Config.StreamBatch must occupy distinct Session cache entries
// (the knob is part of the JSON-hashed Config), yet — because batching
// is pure transport — produce byte-identical results.
func TestStreamBatchKnobDistinctCacheEntries(t *testing.T) {
	var mu sync.Mutex
	started := 0
	s := NewSession(WithWorkers(2), WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			mu.Lock()
			started++
			mu.Unlock()
		}
	}))

	withBatch := func(n int) Job {
		job := benchJob(t, "462.libquantum", 0.1)
		job.Config.Timing.StreamBatch = n
		return job
	}
	a, err := s.Run(context.Background(), withBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(context.Background(), withBatch(2048))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Errorf("executions = %d, want 2 (StreamBatch values aliased one cache entry)", started)
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Error("results differ across StreamBatch sizes; batching must be observably transparent")
	}

	// And the same batch size twice is still a single execution.
	if _, err := s.Run(context.Background(), withBatch(64)); err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Errorf("executions = %d after repeat, want 2 (identical knob re-ran)", started)
	}
}
