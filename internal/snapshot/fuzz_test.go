package snapshot

import (
	"context"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
)

// Budgets of a resumed fuzz input: guest instructions past the
// checkpoint, and simulated cycles past its Cycle. The seed program
// finishes well inside both.
const (
	fuzzGuestBudget = 20_000
	fuzzCycleBudget = 1 << 20
)

// machineSeed encodes a checkpoint of p paused mid-run after pause
// guest instructions: engine (co-simulation on) and simulator in mode.
// The simulator's structures are small, so the seed's line arrays are
// too and the mutator reaches the rest of the envelope.
func machineSeed(f *testing.F, p *guest.Program, mode timing.Mode, pause uint64) []byte {
	f.Helper()
	tcfg := tol.DefaultConfig()
	tcfg.SBThreshold = 20
	tcfg.Cosim = true
	mcfg := timing.DefaultConfig()
	mcfg.BPHistoryBits, mcfg.BTBEntries, mcfg.PrefetcherEntries = 6, 16, 16
	mcfg.L1I.Size, mcfg.L1D.Size, mcfg.L2.Size = 1<<10, 1<<10, 4<<10
	mcfg.L1TLB.Entries, mcfg.L2TLB.Entries = 8, 16
	eng := tol.NewEngine(tcfg, p)
	sim := timing.NewSimulator(mcfg, mode)
	sim.StopWhen = func() bool { return eng.Stats.DynTotal() >= pause }
	if _, err := sim.RunContext(context.Background(), eng); err != timing.ErrPaused {
		f.Fatalf("pause at %d: %v", pause, err)
	}
	m, err := Capture("fib-fuzz", eng, sim)
	if err != nil {
		f.Fatal(err)
	}
	b, err := Encode(m)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzMachineDecode feeds bytes to the checkpoint decoder and, when
// they decode and restore, resumes the machine under a bounded budget:
// the engine's MaxGuestInsts and the simulator's MaxCycles. Decode,
// Restore and the resumed run may each return an error; none may
// panic. The seeds are envelopes of a short program paused mid-run,
// engine and simulator, in the shared and split modes with
// co-simulation on.
func FuzzMachineDecode(f *testing.F) {
	p := fibProgram(150)
	for _, mode := range []timing.Mode{timing.ModeShared, timing.ModeSplit} {
		for _, pause := range []uint64{40, 500} {
			f.Add(machineSeed(f, p, mode, pause))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		eng, sim, err := m.Restore(p)
		if err != nil {
			return
		}
		eng.Cfg.MaxGuestInsts = eng.Stats.DynTotal() + fuzzGuestBudget
		if sim == nil {
			_ = eng.Run()
			return
		}
		if m.Sim.Cycle > ^uint64(0)-fuzzCycleBudget {
			return
		}
		sim.MaxCycles = m.Sim.Cycle + fuzzCycleBudget
		_, _ = sim.RunContext(t.Context(), eng)
	})
}
