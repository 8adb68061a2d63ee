package tol

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/mem"
)

func TestTransTableLookupInsert(t *testing.T) {
	tt := newTransTable()
	if _, ok, probes := tt.Lookup(0x8048000); ok || len(probes) == 0 {
		t.Fatal("empty table lookup")
	}
	tt.Insert(0x8048000, 0x4000000)
	v, ok, _ := tt.Lookup(0x8048000)
	if !ok || v != 0x4000000 {
		t.Fatalf("lookup after insert: %#x %v", v, ok)
	}
	// Replace.
	tt.Insert(0x8048000, 0x4000100)
	v, _, _ = tt.Lookup(0x8048000)
	if v != 0x4000100 {
		t.Fatalf("replace failed: %#x", v)
	}
	if tt.Len() != 1 {
		t.Fatalf("Len = %d", tt.Len())
	}
}

func TestTransTableManyEntries(t *testing.T) {
	tt := newTransTable()
	r := rand.New(rand.NewSource(5))
	ref := map[uint32]uint32{}
	for i := 0; i < 5000; i++ {
		g := 0x8000000 + r.Uint32()%0x100000
		v := 0x4000000 + uint32(i)*4
		tt.Insert(g, v)
		ref[g] = v
	}
	for g, v := range ref {
		got, ok, probes := tt.Lookup(g)
		if !ok || got != v {
			t.Fatalf("lookup %#x: got %#x ok=%v", g, got, ok)
		}
		if len(probes) == 0 {
			t.Fatal("no probes recorded")
		}
	}
}

func TestIBTCFillPeekInvalidate(t *testing.T) {
	m := mem.NewSparse()
	c := newIBTC(m)
	c.Fill(0x8048010, 0x4000040)
	tag, v := c.Peek(0x8048010)
	if tag != 0x8048010 || v != 0x4000040 {
		t.Fatalf("peek: %#x %#x", tag, v)
	}
	// A colliding target (same slot) evicts.
	collide := 0x8048010 + uint32(ibtcEntries*4)
	c.Fill(collide, 0x4000080)
	tag, _ = c.Peek(0x8048010)
	if tag == 0x8048010 {
		t.Fatal("collision should have replaced the entry")
	}
	c.Fill(0x8048010, 0x4000040)
	c.Invalidate(0x8048010)
	tag, v = c.Peek(0x8048010)
	if tag != 0 || v != 0 {
		t.Fatal("invalidate failed")
	}
}

func TestProfileTableBumpAndReset(t *testing.T) {
	m := mem.NewSparse()
	p := newProfileTable(m)
	if p.Count(0x1000) != 0 {
		t.Fatal("fresh count nonzero")
	}
	for i := 0; i < 7; i++ {
		p.Bump(0x1000)
	}
	if p.Count(0x1000) != 7 {
		t.Fatalf("count = %d", p.Count(0x1000))
	}
	p.Reset(0x1000)
	if p.Count(0x1000) != 0 {
		t.Fatal("reset failed")
	}
	a1 := p.SlotAddr(0x1000)
	a2 := p.SlotAddr(0x2000)
	if a1 == a2 {
		t.Fatal("slots collide")
	}
	if p.Allocated() != 2 {
		t.Fatalf("allocated = %d", p.Allocated())
	}
}

func TestFlagsLiveness(t *testing.T) {
	insts := []guest.Inst{
		{Op: guest.OpAddRR}, // flags overwritten by cmp: dead
		{Op: guest.OpMovRR}, // no flags
		{Op: guest.OpCmpRR}, // read by jcc: live
		{Op: guest.OpJcc},   // reader
	}
	mat := flagsLiveness(insts)
	if mat[0] {
		t.Error("add flags should be dead")
	}
	if !mat[2] {
		t.Error("cmp flags should be live")
	}
	// Last flag writer without reader is conservatively live-out.
	insts2 := []guest.Inst{{Op: guest.OpAddRR}, {Op: guest.OpMovRR}}
	mat2 := flagsLiveness(insts2)
	if !mat2[0] {
		t.Error("trailing flag writer must materialize (live-out)")
	}
}

func TestCodeCachePlaceAndFind(t *testing.T) {
	cc := newCodeCache()
	tr := &Translation{TransDesc: TransDesc{Kind: KindBB, GuestEntry: 0x8048000, GuestLen: 3}}
	code := []host.Inst{{Op: host.Nop}, {Op: host.Addi, Rd: 1, Rs1: 1, Imm: 1}, {Op: host.Jal}}
	base, err := cc.Alloc(len(code))
	if err != nil {
		t.Fatal(err)
	}
	cc.PlaceAt(base, tr, code, 0, 2, map[int]*ExitInfo{2: {Reason: ExitTaken}})
	if tr.HostEntry != mem.CodeCacheBase {
		t.Fatalf("entry = %#x", tr.HostEntry)
	}
	if got := cc.EntryAt(tr.HostEntry); got != tr {
		t.Fatal("EntryAt failed")
	}
	if got := cc.FindByPC(tr.HostEntry + 4); got != tr {
		t.Fatal("FindByPC failed")
	}
	if cc.FindByPC(tr.HostEnd) != nil {
		t.Fatal("FindByPC past end should be nil")
	}
	if cc.InstAt(tr.HostEntry+4).Op != host.Addi {
		t.Fatal("InstAt wrong instruction")
	}
	if cc.InstAt(0x1000) != nil {
		t.Fatal("InstAt outside cache should be nil")
	}
	// Patch turns the slot into a jump with a correct relative offset.
	target := tr.HostEntry
	if err := cc.Patch(tr.HostEntry+8, target); err != nil {
		t.Fatal(err)
	}
	patched := cc.InstAt(tr.HostEntry + 8)
	if patched.Op != host.Jal {
		t.Fatal("patch did not produce a jal")
	}
	if got := tr.HostEntry + 8 + host.InstBytes + uint32(patched.Imm); got != target {
		t.Fatalf("patched target = %#x, want %#x", got, target)
	}
}

func TestOwnerCompRegions(t *testing.T) {
	tr := &Translation{TransDesc: TransDesc{HostEntry: 0x4000000, BodyStart: 0x4000010, StubStart: 0x4000020, HostEnd: 0x4000030}}
	if o, c := tr.OwnerComp(0x4000000); o.String() != "tol" || c.String() != "bbm" {
		t.Fatalf("prologue attribution: %v %v", o, c)
	}
	if o, c := tr.OwnerComp(0x4000014); o.String() != "app" || c.String() != "app" {
		t.Fatalf("body attribution: %v %v", o, c)
	}
	if o, c := tr.OwnerComp(0x4000024); o.String() != "tol" || c.String() != "tol-other" {
		t.Fatalf("stub attribution: %v %v", o, c)
	}
}

// randomRegion builds a random straight-line host code region over TOL
// registers with loads/stores to a small arena.
func randomRegion(r *rand.Rand, n int) []host.Inst {
	var code []host.Inst
	reg := func() host.Reg { return host.Reg(1 + r.Intn(10)) }
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			code = append(code, host.Inst{Op: host.Addi, Rd: reg(), Rs1: reg(), Imm: int32(r.Intn(100))})
		case 1:
			code = append(code, host.Inst{Op: host.Add, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 2:
			code = append(code, host.Inst{Op: host.Mul, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 3:
			code = append(code, host.Inst{Op: host.Ld, Rd: reg(), Rs1: 11, Imm: int32(r.Intn(16) * 4)})
		case 4:
			code = append(code, host.Inst{Op: host.St, Rs1: 11, Rs2: reg(), Imm: int32(r.Intn(16) * 4)})
		default:
			code = append(code, host.Inst{Op: host.Xor, Rd: reg(), Rs1: reg(), Rs2: reg()})
		}
	}
	return code
}

// execRegion runs a code region on a fresh CPU with a fixed initial
// state and returns the final register file + arena contents.
func execRegion(t *testing.T, code []host.Inst) ([host.NumRegs]uint32, []uint32) {
	t.Helper()
	m := mem.NewSparse()
	c := host.NewCPU(m)
	for i := host.Reg(1); i <= 10; i++ {
		c.R[i] = uint32(i) * 0x1111
	}
	c.R[11] = 0x9000 // arena base
	for i := uint32(0); i < 16; i++ {
		m.Write32(0x9000+i*4, i*7+3)
	}
	var out host.Outcome
	for i := range code {
		if err := c.Exec(&code[i], &out); err != nil {
			t.Fatal(err)
		}
	}
	arena := make([]uint32, 16)
	for i := uint32(0); i < 16; i++ {
		arena[i] = m.Read32(0x9000 + i*4)
	}
	return c.R, arena
}

func TestSchedulerPreservesSemantics(t *testing.T) {
	// Property: list scheduling must not change the architectural
	// effect of any straight-line region.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		code := randomRegion(r, 4+r.Intn(40))
		orig := append([]host.Inst(nil), code...)
		scheduled := append([]host.Inst(nil), code...)
		scheduleRegion(scheduled)

		r1, a1 := execRegion(t, orig)
		r2, a2 := execRegion(t, scheduled)
		if r1 != r2 {
			t.Fatalf("trial %d: register state diverged after scheduling", trial)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("trial %d: memory diverged at %d", trial, i)
			}
		}
	}
}

func TestSchedulerKeepsBranchPositions(t *testing.T) {
	e := newEmitter(x86Plan)
	e.emit(host.Inst{Op: host.Addi, Rd: 1, Rs1: 1, Imm: 1})
	e.emit(host.Inst{Op: host.Ld, Rd: 2, Rs1: 1})
	e.emit(host.Inst{Op: host.Addi, Rd: 3, Rs1: 2, Imm: 1})
	bIdx := e.emit(host.Inst{Op: host.Beq, Rs1: 3, Rs2: 0, Imm: 8})
	e.emit(host.Inst{Op: host.Addi, Rd: 4, Rs1: 4, Imm: 1})
	jIdx := e.emit(host.Inst{Op: host.Jal, Imm: -16})
	scheduleCode(e)
	if e.code[bIdx].Op != host.Beq {
		t.Fatal("branch moved")
	}
	if e.code[jIdx].Op != host.Jal {
		t.Fatal("jump moved")
	}
}

func TestEvalALUMatchesStep(t *testing.T) {
	// Property: the constant-folding oracle must agree with the
	// canonical Step semantics for every foldable op.
	ops := []guest.Op{
		guest.OpAddRI, guest.OpSubRI, guest.OpCmpRI, guest.OpAndRI,
		guest.OpOrRI, guest.OpXorRI, guest.OpIncR, guest.OpDecR,
		guest.OpNegR, guest.OpNotR, guest.OpShlRI, guest.OpShrRI, guest.OpSarRI,
	}
	f := func(aV, bV uint32, opIdx uint8, oldFlags uint32) bool {
		op := ops[int(opIdx)%len(ops)]
		oldFlags &= guest.FlagsMask
		b := int32(bV)
		if op == guest.OpShlRI || op == guest.OpShrRI || op == guest.OpSarRI {
			b = int32(bV % 32)
		}
		res, flags, ok := guest.EvalALU(op, aV, uint32(b), oldFlags)
		if !ok {
			return false
		}
		// Run the same op through the interpreter.
		bld := guest.NewBuilder()
		bld.MovRI(guest.EAX, int32(aV))
		switch op {
		case guest.OpAddRI:
			bld.AddRI(guest.EAX, b)
		case guest.OpSubRI:
			bld.SubRI(guest.EAX, b)
		case guest.OpCmpRI:
			bld.CmpRI(guest.EAX, b)
		case guest.OpAndRI:
			bld.AndRI(guest.EAX, b)
		case guest.OpOrRI:
			bld.OrRI(guest.EAX, b)
		case guest.OpXorRI:
			bld.XorRI(guest.EAX, b)
		case guest.OpIncR:
			bld.Inc(guest.EAX)
		case guest.OpDecR:
			bld.Dec(guest.EAX)
		case guest.OpNegR:
			bld.Neg(guest.EAX)
		case guest.OpNotR:
			bld.Not(guest.EAX)
		case guest.OpShlRI:
			bld.Shl(guest.EAX, b)
		case guest.OpShrRI:
			bld.Shr(guest.EAX, b)
		case guest.OpSarRI:
			bld.Sar(guest.EAX, b)
		}
		bld.Halt()
		p := bld.MustBuild()
		m := mem.NewSparse()
		st := p.LoadInto(m)
		st.Flags = oldFlags
		var sr guest.StepResult
		for {
			if err := guest.Step(&st, m, &sr); err != nil {
				return false
			}
			if sr.Halted {
				break
			}
		}
		wantRes := st.Regs[guest.EAX]
		if op == guest.OpCmpRI {
			wantRes = aV
		}
		// MovRI set flags? MovRI does not write flags; the op's flags
		// are the final ones unless the op preserves flags.
		return res == wantRes && flags&guest.FlagsMask == st.Flags&guest.FlagsMask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockConstFolding(t *testing.T) {
	// A loop whose body contains foldable constants: the SB must fold
	// them (fewer emitted host instructions than BBM) and still compute
	// correctly — verified by cosim inside runBoth.
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.ECX, 400)
	b.MovRI(guest.EAX, 0)
	b.Label("loop")
	b.MovRI(guest.EBX, 21)        // constant
	b.AddRI(guest.EBX, 21)        // foldable: ebx = 42
	b.MovRR(guest.EDX, guest.EBX) // copy-propagated constant
	b.AddRR(guest.EAX, guest.EDX)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	eng, _ := runBoth(t, b.MustBuild(), cfg)
	if eng.GuestState().Regs[guest.EAX] != 400*42 {
		t.Fatalf("eax = %d", eng.GuestState().Regs[guest.EAX])
	}
	if eng.Stats.SBCreated == 0 {
		t.Fatal("no superblock")
	}
}

func TestSuperblockRedundantLoadElim(t *testing.T) {
	// Repeated loads of the same slot inside a hot loop: the SB caches
	// them in allocatable registers; correctness via cosim.
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EBP, int32(mem.GuestDataBase))
	b.MovRI(guest.EAX, 7)
	b.Store(guest.EBP, 0, guest.EAX)
	b.MovRI(guest.ECX, 300)
	b.MovRI(guest.EDI, 0)
	b.Label("loop")
	b.Load(guest.EAX, guest.EBP, 0)
	b.Load(guest.EBX, guest.EBP, 0) // redundant
	b.AddRR(guest.EDI, guest.EAX)
	b.AddRR(guest.EDI, guest.EBX)
	b.Load(guest.EDX, guest.EBP, 0) // redundant
	b.AddRR(guest.EDI, guest.EDX)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	eng, _ := runBoth(t, b.MustBuild(), cfg)
	if eng.GuestState().Regs[guest.EDI] != 300*21 {
		t.Fatalf("edi = %d", eng.GuestState().Regs[guest.EDI])
	}
}

func TestSuperblockStoreLoadCoherence(t *testing.T) {
	// Store then load of the same slot inside the trace: the cached
	// value must track the store; aliased stores invalidate.
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EBP, int32(mem.GuestDataBase))
	b.MovRI(guest.ECX, 200)
	b.MovRI(guest.EDI, 0)
	b.Label("loop")
	b.Load(guest.EAX, guest.EBP, 4)
	b.AddRI(guest.EAX, 1)
	b.Store(guest.EBP, 4, guest.EAX) // exact-slot store
	b.Load(guest.EBX, guest.EBP, 4)  // must observe the store
	b.AddRR(guest.EDI, guest.EBX)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	cfg := DefaultConfig()
	cfg.SBThreshold = 15
	eng, _ := runBoth(t, b.MustBuild(), cfg)
	// Sum of 1..200.
	if eng.GuestState().Regs[guest.EDI] != 200*201/2 {
		t.Fatalf("edi = %d, want %d", eng.GuestState().Regs[guest.EDI], 200*201/2)
	}
}

func TestEmitterSealUnresolvedLabel(t *testing.T) {
	e := newEmitter(x86Plan)
	l := e.newLabel()
	e.branch(host.Beq, 1, 2, l)
	if err := e.seal(0x4000000); err == nil {
		t.Fatal("unresolved label should fail seal")
	}
}
