package darco

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/workload"
)

func benchJob(t *testing.T, name string, scale float64, opts ...Option) Job {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(scale)
	return Job{
		Name:    spec.Name,
		Variant: fmt.Sprintf("scale=%g", scale),
		Program: workload.SpecProgram{Spec: spec},
		Opts:    append([]Option{WithCosim(false)}, opts...),
	}
}

// TestSessionVariantsDoNotCollide runs the same benchmark at two
// scales in one session and requires two distinct executions: the
// Variant field keeps differently scaled programs out of each other's
// cache slots.
func TestSessionVariantsDoNotCollide(t *testing.T) {
	var mu sync.Mutex
	started := 0
	s := NewSession(WithWorkers(2), WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			mu.Lock()
			started++
			mu.Unlock()
		}
	}))
	small, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Errorf("executions = %d, want 2 (scale variants collided)", started)
	}
	if small.GuestDyn() >= large.GuestDyn() {
		t.Errorf("scale 0.1 ran %d guest insts, scale 0.2 ran %d; want smaller < larger",
			small.GuestDyn(), large.GuestDyn())
	}
}

// TestSessionMemoizes submits the same job twice and requires a single
// simulation: the second call must be a cache hit.
func TestSessionMemoizes(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventKind]int{}
	s := NewSession(WithWorkers(2), WithEvents(func(ev Event) {
		mu.Lock()
		counts[ev.Kind]++
		mu.Unlock()
	}))
	job := benchJob(t, "462.libquantum", 0.1)
	r1, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memoized run returned a different Result pointer")
	}
	if counts[EventStarted] != 1 || counts[EventCached] != 1 {
		t.Errorf("events: started=%d cached=%d, want 1/1", counts[EventStarted], counts[EventCached])
	}

	// A different config must NOT hit the cache.
	alt := job
	alt.Opts = append(alt.Opts, WithMode(timing.ModeSplit))
	if _, err := s.Run(context.Background(), alt); err != nil {
		t.Fatal(err)
	}
	if counts[EventStarted] != 2 {
		t.Errorf("split-mode run was served from the shared-mode cache (started=%d)", counts[EventStarted])
	}
}

// TestSessionConcurrentIdentical runs the same job from many
// goroutines at once and requires exactly one execution with all
// callers sharing its result.
func TestSessionConcurrentIdentical(t *testing.T) {
	var mu sync.Mutex
	started := 0
	s := NewSession(WithWorkers(4), WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			mu.Lock()
			started++
			mu.Unlock()
		}
	}))
	job := benchJob(t, "470.lbm", 0.1)
	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Run(context.Background(), job)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if started != 1 {
		t.Errorf("concurrent identical jobs executed %d times, want 1", started)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different Result pointer", i)
		}
	}
}

// TestSessionBatchMatchesSequential is the core determinism guarantee:
// a concurrent batch over distinct benchmarks must produce results
// byte-identical to one-at-a-time execution.
func TestSessionBatchMatchesSequential(t *testing.T) {
	names := []string{"462.libquantum", "400.perlbench", "107.novis_ragdoll"}

	sequential := make(map[string][]byte)
	for _, n := range names {
		job := benchJob(t, n, 0.1)
		res, err := NewSession(WithWorkers(1)).Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sequential[n] = b
	}

	s := NewSession(WithWorkers(4))
	var jobs []Job
	for _, n := range names {
		jobs = append(jobs, benchJob(t, n, 0.1))
	}
	for _, br := range s.RunBatch(context.Background(), jobs) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(sequential[br.Job.Name]) {
			t.Errorf("%s: concurrent result differs from sequential", br.Job.Name)
		}
	}
}

// TestSessionBatchReportsPerJobErrors checks a bad job surfaces its
// own error without stopping the rest of the batch.
func TestSessionBatchReportsPerJobErrors(t *testing.T) {
	s := NewSession(WithWorkers(2))
	boom := errors.New("boom")
	jobs := []Job{
		benchJob(t, "462.libquantum", 0.1),
		{Name: "broken", Program: workload.Func("broken", func() (*guest.Program, error) { return nil, boom })},
	}
	out := s.RunBatch(context.Background(), jobs)
	if out[0].Err != nil {
		t.Errorf("good job failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, boom) {
		t.Errorf("bad job error = %v, want wrapped boom", out[1].Err)
	}
}

// TestSessionPreload checks externally supplied results short-circuit
// simulation.
func TestSessionPreload(t *testing.T) {
	started := false
	s := NewSession(WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			started = true
		}
	}))
	canned := &Result{Timing: &timing.Result{Cycles: 42}}
	s.Preload("462.libquantum", timing.ModeShared, canned)
	res, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res != canned {
		t.Error("preloaded result not returned")
	}
	if started {
		t.Error("preloaded job was simulated anyway")
	}
}
