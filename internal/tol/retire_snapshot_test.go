package tol_test

import (
	"encoding/json"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// TestCaptureRetiredEngine checkpoints an engine whose stream ended, so
// its stream arena and decode cache went to the next engine, through
// snapshot.Capture, Encode and Decode, and restores it: the result is a
// halted engine with an empty stream and the same Stats and guest
// state.
func TestCaptureRetiredEngine(t *testing.T) {
	wp, err := workload.Open("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if wp, err = workload.ScaleProgram(wp, 0.1); err != nil {
		t.Fatal(err)
	}
	p, err := wp.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := tol.NewEngine(tol.DefaultConfig(), p)
	var buf [256]timing.DynInst
	for e.NextBatch(buf[:]) > 0 {
	}
	if err := e.Err(); err != nil || !e.Halted() {
		t.Fatalf("run did not halt: %v", err)
	}

	m, err := snapshot.Capture("429.mcf", e, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = snapshot.Decode(blob); err != nil {
		t.Fatal(err)
	}
	r, _, err := m.Restore(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted() || r.NextBatch(buf[:]) != 0 || r.Err() != nil {
		t.Fatal("restored engine is not halted with an empty stream")
	}
	want, _ := json.Marshal(&e.Stats)
	got, _ := json.Marshal(&r.Stats)
	if string(got) != string(want) {
		t.Fatalf("restored Stats differ:\n%s\n%s", got, want)
	}
	if d := r.GuestState().Diff(e.GuestState()); d != "" {
		t.Fatalf("restored guest state differs: %s", d)
	}
}
