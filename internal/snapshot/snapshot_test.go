package snapshot

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

func fibProgram(n int32) *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.EBX, 1)
	b.MovRI(guest.ECX, n)
	b.Label("loop")
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondE, "done")
	b.MovRR(guest.EDX, guest.EBX)
	b.AddRR(guest.EBX, guest.EAX)
	b.MovRR(guest.EAX, guest.EDX)
	b.Dec(guest.ECX)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustBuild()
}

// TestMachineRoundTrip is the whole-machine checkpoint test: pause a
// full detailed run (engine + timing simulator) mid-flight, capture it
// through the versioned envelope and a JSON round-trip, restore, and
// resume. The completed run must be byte-identical — same timing
// Result, same TOL Stats serialization, same guest state — to an
// uninterrupted run. It runs under every timing mode, so ModeSplit's
// second structure set is checkpointed too.
func TestMachineRoundTrip(t *testing.T) {
	for mode := timing.Mode(0); mode < timing.NumModes; mode++ {
		t.Run(mode.String(), func(t *testing.T) { machineRoundTrip(t, mode) })
	}
}

func machineRoundTrip(t *testing.T, mode timing.Mode) {
	p := fibProgram(400)
	tcfg := tol.DefaultConfig()
	tcfg.SBThreshold = 20
	mcfg := timing.DefaultConfig()

	// Uninterrupted reference.
	refEng := tol.NewEngine(tcfg, p)
	refSim := timing.NewSimulator(mcfg, mode)
	refRes, err := refSim.Run(refEng)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !refEng.Halted() {
		t.Fatal("reference run did not halt")
	}
	pause := refEng.Stats.DynTotal() / 2

	// Interrupted run: pause the simulator once the engine crosses the
	// midpoint, checkpoint the whole machine.
	eng := tol.NewEngine(tcfg, p)
	sim := timing.NewSimulator(mcfg, mode)
	sim.StopWhen = func() bool { return eng.Stats.DynTotal() >= pause }
	if _, err := sim.RunContext(t.Context(), eng); err != timing.ErrPaused {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	m, err := Capture("fib-test", eng, sim)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if m.GuestInsts < pause {
		t.Fatalf("checkpoint records %d guest insts, paused at >= %d", m.GuestInsts, pause)
	}
	blob, err := Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := decoded.Validate("fib-test"); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Restore and resume to completion.
	eng2, sim2, err := decoded.Restore(p)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if sim2 == nil {
		t.Fatal("restore dropped the simulator state")
	}
	res, err := sim2.RunContext(t.Context(), eng2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !eng2.Halted() {
		t.Fatal("resumed run did not halt")
	}

	gotRes, _ := json.Marshal(res)
	wantRes, _ := json.Marshal(refRes)
	if !bytes.Equal(gotRes, wantRes) {
		t.Fatalf("timing results differ:\nresumed:       %s\nuninterrupted: %s", gotRes, wantRes)
	}
	gotStats, _ := json.Marshal(&eng2.Stats)
	wantStats, _ := json.Marshal(&refEng.Stats)
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("TOL stats differ:\nresumed:       %s\nuninterrupted: %s", gotStats, wantStats)
	}
	if d := eng2.GuestState().Diff(refEng.GuestState()); d != "" {
		t.Fatalf("final guest state differs: %s", d)
	}
}

// TestMachineRoundTripFuzzSpecs extends the byte-identity guarantee to
// fuzz-generated workloads: seeded specs from the fuzz: generator —
// promotion-straddling loops, dense indirect dispatch, working-set
// shifts — must checkpoint mid-run, restore, and resume to exactly the
// uninterrupted run's timing Result, TOL stats, and guest state.
func TestMachineRoundTripFuzzSpecs(t *testing.T) {
	for _, ref := range []struct {
		seed    int64
		profile string
	}{{11, "hot"}, {12, "indirect"}, {13, "shift"}, {14, "tiny"}} {
		spec, err := workload.GenSpec(ref.seed, ref.profile)
		if err != nil {
			t.Fatal(err)
		}
		spec = spec.Clamp(20_000)
		t.Run(spec.Name, func(t *testing.T) {
			p, err := workload.SpecProgram{Spec: spec}.Build()
			if err != nil {
				t.Fatal(err)
			}
			tcfg := tol.DefaultConfig()
			mcfg := timing.DefaultConfig()

			refEng := tol.NewEngine(tcfg, p)
			refSim := timing.NewSimulator(mcfg, timing.ModeShared)
			refRes, err := refSim.Run(refEng)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			pause := refEng.Stats.DynTotal() / 2
			if pause == 0 {
				t.Fatalf("%s executed too few instructions to pause", spec.Name)
			}

			eng := tol.NewEngine(tcfg, p)
			sim := timing.NewSimulator(mcfg, timing.ModeShared)
			sim.StopWhen = func() bool { return eng.Stats.DynTotal() >= pause }
			if _, err := sim.RunContext(t.Context(), eng); err != timing.ErrPaused {
				t.Fatalf("expected ErrPaused, got %v", err)
			}
			m, err := Capture(spec.Name, eng, sim)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			blob, err := Encode(m)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			decoded, err := Decode(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			eng2, sim2, err := decoded.Restore(p)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			res, err := sim2.RunContext(t.Context(), eng2)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			gotRes, _ := json.Marshal(res)
			wantRes, _ := json.Marshal(refRes)
			if !bytes.Equal(gotRes, wantRes) {
				t.Fatalf("timing results differ:\nresumed:       %s\nuninterrupted: %s", gotRes, wantRes)
			}
			gotStats, _ := json.Marshal(&eng2.Stats)
			wantStats, _ := json.Marshal(&refEng.Stats)
			if !bytes.Equal(gotStats, wantStats) {
				t.Fatalf("TOL stats differ:\nresumed:       %s\nuninterrupted: %s", gotStats, wantStats)
			}
			if d := eng2.GuestState().Diff(refEng.GuestState()); d != "" {
				t.Fatalf("final guest state differs: %s", d)
			}
		})
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	m := &Machine{Version: Version + 1, Engine: &tol.EngineSnapshot{}}
	blob, _ := json.Marshal(m)
	if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

func TestValidateRejectsForeignProgram(t *testing.T) {
	p := fibProgram(10)
	eng := tol.NewEngine(tol.DefaultConfig(), p)
	m, err := Capture("prog-a", eng, nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if err := m.Validate("prog-b"); err == nil {
		t.Fatal("expected program-mismatch error")
	}
	if err := m.Validate(""); err != nil {
		t.Fatalf("unknown caller fingerprint must pass: %v", err)
	}
	if err := m.Validate("prog-a"); err != nil {
		t.Fatalf("matching fingerprint must pass: %v", err)
	}
}

// TestCaptureFreshEngine pins the sampling runner's interval-0 path: a
// checkpoint of a never-stepped engine restores to a machine that runs
// the whole program identically to a fresh one.
func TestCaptureFreshEngine(t *testing.T) {
	p := fibProgram(50)
	tcfg := tol.DefaultConfig()
	m, err := Capture("", tol.NewEngine(tcfg, p), nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if m.GuestInsts != 0 {
		t.Fatalf("fresh engine checkpoint records %d guest insts", m.GuestInsts)
	}
	eng, sim, err := m.Restore(p)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if sim != nil {
		t.Fatal("engine-only checkpoint restored a simulator")
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	ref := tol.NewEngine(tcfg, p)
	if err := ref.Run(); err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, _ := json.Marshal(&eng.Stats)
	want, _ := json.Marshal(&ref.Stats)
	if !bytes.Equal(got, want) {
		t.Fatalf("stats differ:\nrestored: %s\nfresh:    %s", got, want)
	}
}
