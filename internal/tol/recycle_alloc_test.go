package tol

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/timing"
)

// TestRetiredArenaIsAdopted is the allocation side of retirement: after
// one run of a short bursting program, every next run adopts its burst
// arena instead of allocating its own, so each allocates at least one
// arena less than the first run. Two garbage collections run before
// each of them: the arena must outlive the collector, or whether a run
// reuses it would turn on when the collector last ran.
func TestRetiredArenaIsAdopted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cosim = false
	p := hotLoopProgram(t, 20_000)
	var buf [256]timing.DynInst
	var ms runtime.MemStats
	run := func() uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		e := NewEngine(cfg, p)
		for e.NextBatch(buf[:]) > 0 {
		}
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	emptyFreeLists()
	first := run()
	arena := uint64(queueBurstCap * unsafe.Sizeof(timing.DynInst{}))
	for i := range 9 {
		runtime.GC()
		runtime.GC()
		if n := run(); n+arena > first {
			t.Errorf("run %d allocates %d bytes, the first run %d: the drop is less than one %d-byte burst arena", i+2, n, first, arena)
		}
	}
}
