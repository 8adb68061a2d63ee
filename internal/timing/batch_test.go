package timing

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// batchStream synthesizes a mixed stream with branches, loads and both
// owners, long enough to force many refills.
func batchStream(n int) []DynInst {
	insts := make([]DynInst, 0, n)
	pc := uint32(0x100000)
	for i := 0; i < n; i++ {
		d := DynInst{
			PC: pc + uint32(i%512)*4, Owner: Owner(uint32(i/7) % uint32(NumOwners)),
			Dst: uint8(1 + i%8), Src1: RegNone, Src2: RegNone,
		}
		if i%5 == 0 {
			d.IsLoad = true
			d.MemAddr = 0x40000000 + uint32(i%4096)*64
		}
		if i%11 == 0 {
			d.IsBranch, d.IsCond = true, true
			d.Taken = i%22 == 0
			d.Target = pc + uint32((i+17)%512)*4
		}
		insts = append(insts, d)
	}
	return insts
}

// TestBatchedSourceResultsIdentical pins that the batched transport
// changes nothing observable: the same stream consumed under different
// StreamBatch sizes produces deeply identical Results.
func TestBatchedSourceResultsIdentical(t *testing.T) {
	insts := batchStream(50_000)
	run := func(cfg Config) *Result {
		res, err := NewSimulator(cfg, ModeShared).Run(&SliceSource{Insts: insts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(DefaultConfig())
	for _, batch := range []int{1, 7, 256, 100_000} {
		cfg := DefaultConfig()
		cfg.StreamBatch = batch
		if got := run(cfg); !reflect.DeepEqual(base, got) {
			t.Errorf("StreamBatch=%d result differs from default", batch)
		}
	}
}

// cancellingSource delivers one batch and cancels the context from
// inside the delivery, so the simulator's next refill observes the
// cancellation at the exact moment the stream ends.
type cancellingSource struct {
	insts  []DynInst
	cancel func()
	done   bool
}

func (c *cancellingSource) NextBatch(buf []DynInst) int {
	if c.done {
		return 0
	}
	c.done = true
	c.cancel()
	return copy(buf, c.insts)
}

// TestRefillCancellationNotSwallowed pins the regression where a
// context cancelled right as the stream drained was reported as a
// successful (truncated) run: the stream-done exit must re-check the
// refill-time cancellation and surface ctx.Err(), never a nil-error
// partial Result. The first batch holds a single TOL-owned
// instruction under ModeAppOnly, so fetch skips it, immediately
// refills with the context now cancelled, and reaches the
// all-drained break in that same cycle — the exact window.
func TestRefillCancellationNotSwallowed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{
		insts:  []DynInst{{PC: 0x100000, Owner: OwnerTOL, Dst: RegNone, Src1: RegNone, Src2: RegNone}},
		cancel: cancel,
	}
	sim := NewSimulator(DefaultConfig(), ModeAppOnly)
	res, err := sim.RunContext(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res=%v), want context.Canceled", err, res)
	}
}

// TestPipelineSteadyStateAllocs asserts the cycle loop allocates
// nothing per instruction: all buffers (IQ ring, batch buffer, caches)
// are preallocated at construction.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	insts := batchStream(20_000)
	const runs = 8
	sims := make([]*Simulator, runs+1)
	srcs := make([]*SliceSource, runs+1)
	for i := range sims {
		sims[i] = NewSimulator(DefaultConfig(), ModeShared)
		srcs[i] = &SliceSource{Insts: insts}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := sims[i].Run(srcs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("cycle loop: %.1f allocs per 20k-inst run, want 0", allocs)
	}
}
