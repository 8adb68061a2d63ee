package tol

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/emu"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/timing"
)

// runBoth executes a program on the authoritative emulator and through
// the full engine (cosim enabled: every boundary is state-checked) and
// compares the final architectural state.
func runBoth(t *testing.T, p *guest.Program, cfg Config) (*Engine, *emu.Emulator) {
	t.Helper()
	ref := emu.New(p)
	if err := ref.Run(50_000_000); err != nil {
		t.Fatalf("reference: %v", err)
	}
	eng := NewEngine(cfg, p)
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !eng.Halted() {
		t.Fatal("engine did not halt")
	}
	if d := eng.GuestState().Diff(&ref.State); d != "" {
		t.Fatalf("final state mismatch: %s", d)
	}
	if got, want := eng.Stats.DynTotal(), ref.DynInsts; got != want {
		t.Fatalf("dynamic instruction count: engine %d, reference %d", got, want)
	}
	return eng, ref
}

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

func TestEngineFibonacciAllTiers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20 // force SBM quickly
	eng, _ := runBoth(t, fibProgram(500), cfg)
	if eng.GuestState().Regs[guest.EAX] == 0 {
		t.Fatal("fib result missing")
	}
	if eng.Stats.DynIM == 0 || eng.Stats.DynBBM == 0 || eng.Stats.DynSBM == 0 {
		t.Fatalf("expected all tiers exercised: %+v", eng.Stats)
	}
	// A hot loop must execute overwhelmingly from SBM.
	if eng.Stats.DynSBM < eng.Stats.DynTotal()*8/10 {
		t.Fatalf("SBM share too low: %d of %d", eng.Stats.DynSBM, eng.Stats.DynTotal())
	}
	if eng.Stats.SBCreated == 0 || eng.Stats.BBTranslated == 0 {
		t.Fatalf("no translations: %+v", eng.Stats)
	}
	if eng.Stats.Chains == 0 {
		t.Fatal("chaining never happened")
	}
}

func TestEngineBBMOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableSBM = false
	eng, _ := runBoth(t, fibProgram(200), cfg)
	if eng.Stats.SBCreated != 0 || eng.Stats.DynSBM != 0 {
		t.Fatal("SBM ran despite being disabled")
	}
	if eng.Stats.DynBBM == 0 {
		t.Fatal("BBM never executed")
	}
}

func TestEngineInterpOnlyThreshold(t *testing.T) {
	// With a huge BB threshold everything stays interpreted.
	cfg := DefaultConfig()
	cfg.BBThreshold = 1 << 30
	eng, _ := runBoth(t, fibProgram(50), cfg)
	if eng.Stats.DynBBM != 0 || eng.Stats.DynSBM != 0 {
		t.Fatal("translation happened below threshold")
	}
	if eng.Stats.DynIM == 0 {
		t.Fatal("nothing interpreted")
	}
}

func TestEngineCallsAndReturns(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.ECX, 100)
	b.Label("loop")
	b.Call("addone")
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	b.Label("addone")
	b.Inc(guest.EAX)
	b.Ret()
	cfg := DefaultConfig()
	cfg.SBThreshold = 10
	eng, _ := runBoth(t, b.MustBuild(), cfg)
	if eng.GuestState().Regs[guest.EAX] != 100 {
		t.Fatalf("eax = %d", eng.GuestState().Regs[guest.EAX])
	}
	if eng.Stats.IBTCFills == 0 {
		t.Fatal("returns never filled the IBTC")
	}
	if eng.Stats.IndirectDyn == 0 {
		t.Fatal("indirect branches not counted")
	}
}

func TestEngineIndirectJumpTable(t *testing.T) {
	// A dispatcher cycling over a jump table of 4 cases — the
	// perlbench-style pattern.
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.ESI, 0)   // case index
	b.MovRI(guest.ECX, 200) // iterations
	b.MovRI(guest.EDI, 0)   // accumulator
	b.Label("loop")
	b.MovRI(guest.EBP, int32(mem.GuestTableBase))
	b.LoadIdx(guest.EAX, guest.EBP, guest.ESI, 4, 0)
	b.JmpInd(guest.EAX)
	for i := 0; i < 4; i++ {
		b.Label(caseLabel(i))
		b.AddRI(guest.EDI, int32(i+1))
		b.Jmp("join")
	}
	b.Label("join")
	b.Inc(guest.ESI)
	b.AndRI(guest.ESI, 3)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Fill the jump table with case addresses.
	var words []uint32
	for i := 0; i < 4; i++ {
		a, ok := b.AddrOf(caseLabel(i))
		if !ok {
			t.Fatal("case label missing")
		}
		words = append(words, a)
	}
	raw := make([]byte, 16)
	for i, w := range words {
		raw[4*i] = byte(w)
		raw[4*i+1] = byte(w >> 8)
		raw[4*i+2] = byte(w >> 16)
		raw[4*i+3] = byte(w >> 24)
	}
	p.Data = append(p.Data, guest.DataSeg{Addr: mem.GuestTableBase, Bytes: raw})

	cfg := DefaultConfig()
	cfg.SBThreshold = 25
	eng, _ := runBoth(t, p, cfg)
	// 200 iterations over cases 1..4: 50 * (1+2+3+4) = 500.
	if eng.GuestState().Regs[guest.EDI] != 500 {
		t.Fatalf("edi = %d, want 500", eng.GuestState().Regs[guest.EDI])
	}
	if eng.Stats.IndirectDyn < 200 {
		t.Fatalf("indirect branches = %d, want >= 200", eng.Stats.IndirectDyn)
	}
}

func caseLabel(i int) string {
	return string(rune('a'+i)) + "case"
}

func TestEngineIBTCDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableIBTC = false
	cfg.SBThreshold = 10
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.ECX, 50)
	b.Label("loop")
	b.Call("f")
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	b.Label("f")
	b.Inc(guest.EAX)
	b.Ret()
	eng, _ := runBoth(t, b.MustBuild(), cfg)
	if eng.Stats.IBTCFills != 0 {
		t.Fatal("IBTC filled while disabled")
	}
	// Every return transitions to TOL.
	if eng.Stats.Transitions < 40 {
		t.Fatalf("transitions = %d, expected one per return", eng.Stats.Transitions)
	}
}

func TestEngineChainingDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableChaining = false
	cfg.EnableSBM = false
	eng, _ := runBoth(t, fibProgram(100), cfg)
	if eng.Stats.Chains != 0 {
		t.Fatal("chained while disabled")
	}
	// Without chaining every block boundary transitions to TOL.
	if eng.Stats.Transitions < eng.Stats.DynBBM/10 {
		t.Fatalf("transitions = %d for %d BBM insts", eng.Stats.Transitions, eng.Stats.DynBBM)
	}
}

// randProgram generates a structured random program: nested bounded
// loops, straight-line ALU/memory/FP bodies, calls and an indirect
// jump table, with every flag-and-register pattern the translator must
// preserve.
func randProgram(r *rand.Rand, bodyLen int) *guest.Program {
	b := guest.NewBuilder()
	// EDX is the loop counter and EBP the data base; the random body
	// must not clobber either or the program may never halt.
	regs := []guest.Reg{guest.EAX, guest.EBX, guest.ECX, guest.ESI, guest.EDI}
	randReg := func() guest.Reg { return regs[r.Intn(len(regs))] }

	b.Label("start")
	b.MovRI(guest.EBP, int32(mem.GuestDataBase))
	for i, reg := range regs {
		b.MovRI(reg, int32(r.Uint32()>>uint(i)))
	}
	b.MovRI(guest.EDX, int32(r.Intn(40)+10)) // outer counter

	b.Label("outer")
	emitRandBody(b, r, randReg, bodyLen)
	b.Call("fn1")
	emitRandBody(b, r, randReg, bodyLen/2)
	b.Dec(guest.EDX)
	b.CmpRI(guest.EDX, 0)
	b.Jcc(guest.CondNE, "outer")
	b.Halt()

	b.Label("fn1")
	emitRandBody(b, r, randReg, bodyLen/2)
	b.Ret()

	return b.MustBuild()
}

// emitRandBody emits straight-line randomized instructions that cannot
// change control flow and keep EBP (data base) intact.
func emitRandBody(b *guest.Builder, r *rand.Rand, randReg func() guest.Reg, n int) {
	for i := 0; i < n; i++ {
		switch r.Intn(16) {
		case 0:
			b.MovRR(randReg(), randReg())
		case 1:
			b.MovRI(randReg(), int32(r.Uint32()))
		case 2:
			b.AddRR(randReg(), randReg())
		case 3:
			b.SubRI(randReg(), int32(r.Intn(1000)-500))
		case 4:
			b.AndRR(randReg(), randReg())
		case 5:
			b.OrRI(randReg(), int32(r.Uint32()))
		case 6:
			b.XorRR(randReg(), randReg())
		case 7:
			b.Store(guest.EBP, int32(r.Intn(64)*4), randReg())
		case 8:
			b.Load(randReg(), guest.EBP, int32(r.Intn(64)*4))
		case 9:
			b.ImulRR(randReg(), randReg())
		case 10:
			b.Shl(randReg(), int32(r.Intn(31)))
		case 11:
			b.Inc(randReg())
		case 12:
			b.CmpRR(randReg(), randReg())
		case 13:
			b.Neg(randReg())
		case 14:
			b.FLoad(guest.FReg(r.Intn(4)), guest.EBP, int32(r.Intn(16)*8))
			b.FAdd(guest.FReg(r.Intn(4)), guest.FReg(r.Intn(4)))
			b.FStore(guest.EBP, int32(r.Intn(16)*8), guest.FReg(r.Intn(4)))
		case 15:
			b.Sar(randReg(), int32(r.Intn(31)))
		}
	}
}

func TestEngineRandomProgramsDifferential(t *testing.T) {
	// The core property test: randomized programs must execute
	// identically under interpretation + BBM + SBM (with continuous
	// co-simulation) and the authoritative emulator.
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randProgram(r, 12+r.Intn(30))
		cfg := DefaultConfig()
		cfg.SBThreshold = 5 + r.Intn(30)
		cfg.BBThreshold = 1 + r.Intn(4)
		runBoth(t, p, cfg)
	}
}

func TestEngineRandomNoSBM(t *testing.T) {
	for seed := int64(100); seed <= 106; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randProgram(r, 20)
		cfg := DefaultConfig()
		cfg.EnableSBM = false
		cfg.BBThreshold = 2
		runBoth(t, p, cfg)
	}
}

func TestEngineStreamOwnersAndComponents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	eng := NewEngine(cfg, fibProgram(300))
	var d timing.DynInst
	var appInsts, tolInsts uint64
	comps := map[timing.Component]uint64{}
	for eng.Next(&d) {
		if d.Owner == timing.OwnerApp {
			appInsts++
		} else {
			tolInsts++
		}
		comps[d.Comp]++
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if appInsts == 0 || tolInsts == 0 {
		t.Fatalf("stream owners: app=%d tol=%d", appInsts, tolInsts)
	}
	for _, c := range []timing.Component{timing.CompIM, timing.CompBBM,
		timing.CompSBM, timing.CompChaining, timing.CompCodeCacheLookup, timing.CompTOLOther} {
		if comps[c] == 0 {
			t.Errorf("component %s never appeared in the stream", c)
		}
	}
}

func TestEngineModeStaticCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	eng, _ := runBoth(t, fibProgram(300), cfg)
	im, bbm, sbm := eng.Stats.StaticCounts()
	if im+bbm+sbm != eng.Stats.StaticTotal() {
		t.Fatal("static mode counts do not sum")
	}
	if sbm == 0 {
		t.Fatal("no static code promoted to SBM")
	}
}

func TestEngineGuestBudget(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("start")
	b.Label("loop")
	b.Inc(guest.EAX)
	b.Jmp("loop") // never halts
	cfg := DefaultConfig()
	cfg.Cosim = false
	cfg.MaxGuestInsts = 10_000
	eng := NewEngine(cfg, b.MustBuild())
	if err := eng.Run(); err == nil {
		t.Fatal("expected budget error")
	}
}

// TestNewEngineInvalidConfigStillInspectable pins the failed-engine
// contract on every early-return path of construction: the error is
// reported, the stream is empty, and the exported TOL structures are
// empty but present — inspecting a failed engine never dereferences
// nil.
func TestNewEngineInvalidConfigStillInspectable(t *testing.T) {
	foreign := *fibProgram(10)
	foreign.ISA = "no-such-frontend"
	badPolicy := DefaultConfig()
	badPolicy.Cache = CacheConfig{CapacityInsts: 512, Policy: "no-such-policy"}
	badBound := DefaultConfig()
	badBound.BBThreshold = -1
	for name, tc := range map[string]struct {
		cfg Config
		p   *guest.Program
	}{
		"invalid config":   {badBound, fibProgram(10)},
		"unknown eviction": {badPolicy, fibProgram(10)},
		"unknown frontend": {DefaultConfig(), &foreign},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(tc.cfg, tc.p)
			if e.Err() == nil {
				t.Fatal("engine built without error")
			}
			if e.CC == nil || e.tt == nil || e.ib == nil || e.prof == nil {
				t.Fatalf("failed engine lost a structure: CC=%v TT=%v IB=%v Prof=%v", e.CC, e.tt, e.ib, e.prof)
			}
			if n := len(e.CC.Translations()); n != 0 || e.CC.UsedInsts() != 0 || e.CC.Bounded() {
				t.Errorf("code cache of a failed engine: %d translations, %d insts, bounded=%v", n, e.CC.UsedInsts(), e.CC.Bounded())
			}
			if e.tt.Len() != 0 || e.prof.Allocated() != 0 {
				t.Errorf("tables of a failed engine: %d translations, %d profile slots", e.tt.Len(), e.prof.Allocated())
			}
			if _, ok, _ := e.tt.Lookup(tc.p.Entry); ok {
				t.Error("lookup hit in an empty table")
			}
			if tag, entry := e.ib.Peek(tc.p.Entry); tag != 0 || entry != 0 {
				t.Errorf("IBTC line of a failed engine: %#x -> %#x", tag, entry)
			}
			var d timing.DynInst
			if e.Next(&d) {
				t.Error("failed engine produced a stream")
			}
			if err := e.Run(); err == nil {
				t.Error("Run on a failed engine returned nil")
			}
			if _, err := e.Snapshot(); err == nil {
				t.Error("failed engine let itself be snapshotted")
			}
		})
	}
}

// TestEnginesBuiltConcurrently builds and drains engines from several
// goroutines over one shared program, the way darco.Session workers do.
// Running engines share nothing mutable — no lazily shared pages; a
// retired engine's arena and decode cache reach the next engine only
// through a locked free list — so every goroutine must see the same
// stream; run under -race this is the tripwire for any other sharing.
func TestEnginesBuiltConcurrently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cosim = false
	cfg.SBThreshold = 25
	cfg.Cache = CacheConfig{CapacityInsts: 640, Policy: "lru-translation"}
	p := pressureProgram(6, 40, 8)

	drain := func() (string, int, error) { return streamDigest(NewEngine(cfg, p)) }
	wantSum, wantN, err := drain()
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 3
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for r := 0; r < rounds; r++ {
				sum, n, err := drain()
				if err == nil && (sum != wantSum || n != wantN) {
					err = fmt.Errorf("stream differs: %d insts digest %s, want %d insts digest %s", n, sum, wantN, wantSum)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestNewEngineAllocBudget is the cold-path tripwire: building an
// engine and draining a short program must cost what the run touches,
// not the capacity of the tables behind it. The ceiling is several
// times today's figure and a quarter of what dense tables cost.
func TestNewEngineAllocBudget(t *testing.T) {
	const ceiling = 256 << 10
	cfg := DefaultConfig()
	cfg.Cosim = false
	p := fibProgram(6)
	var buf [256]timing.DynInst
	run := func() uint64 {
		e := NewEngine(cfg, p)
		for e.NextBatch(buf[:]) > 0 {
		}
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return e.Stats.DynTotal()
	}
	dyn := run()
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("NewEngine + %d-instruction run: %d bytes", dyn, per)
	if per > ceiling {
		t.Errorf("NewEngine + short run allocates %d bytes, ceiling %d", per, ceiling)
	}
}
