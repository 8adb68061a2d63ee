package tol

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/timing"
)

// TestDrainMatchesDiscardedStream pins Drain against the loop it
// replaces: over every stream-golden case, one engine pauses at a few
// guest-instruction bounds and drains with NextBatch into a buffer it
// never reads, the other drains with Drain. At every pause and at the
// end the instruction counts, Paused, the statistics and the snapshot
// bytes (cost-emitter rotation and queue included) must be equal.
func TestDrainMatchesDiscardedStream(t *testing.T) {
	for _, tc := range streamGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.program(t)
			cfg := DefaultConfig()
			tc.cfg(&cfg)
			ref, got := NewEngine(cfg, p), NewEngine(cfg, p)
			var buf [512]timing.DynInst
			for _, stop := range []uint64{1, 2_000, 9_000, 30_000, 0} {
				ref.SetStopAfter(stop)
				got.SetStopAfter(stop)
				var want uint64
				for {
					n := ref.NextBatch(buf[:])
					if n == 0 {
						break
					}
					want += uint64(n)
				}
				if n := got.Drain(); n != want {
					t.Fatalf("stop %d: Drain counted %d instructions, the stream held %d", stop, n, want)
				}
				if ref.Paused() != got.Paused() || ref.Halted() != got.Halted() {
					t.Fatalf("stop %d: paused/halted %v/%v, want %v/%v", stop, got.Paused(), got.Halted(), ref.Paused(), ref.Halted())
				}
				if err := ref.Err(); err != nil || got.Err() != nil {
					t.Fatalf("stop %d: errors %v / %v", stop, err, got.Err())
				}
				if !bytes.Equal(snapshotJSON(t, got), snapshotJSON(t, ref)) {
					t.Fatalf("stop %d: engine state after Drain differs from the discarded stream's", stop)
				}
			}
			if !got.Halted() {
				t.Fatal("run did not halt")
			}
		})
	}
}

func snapshotJSON(t *testing.T, e *Engine) []byte {
	t.Helper()
	sn, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
