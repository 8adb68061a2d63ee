package guest

import (
	"testing"

	"repro/internal/mem"
)

// run assembles the program built by fn, executes it to completion on a
// fresh state/memory, and returns the final state and memory.
func run(t *testing.T, fn func(b *Builder)) (*State, *mem.Sparse) {
	t.Helper()
	b := NewBuilder()
	fn(b)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := mem.NewSparse()
	s := p.LoadInto(m)
	var res StepResult
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatal("program did not halt")
		}
		if err := Step(&s, m, &res); err != nil {
			t.Fatalf("step: %v", err)
		}
		if res.Halted {
			return &s, m
		}
	}
}

func TestMovAndALU(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 10)
		b.MovRI(EBX, 3)
		b.MovRR(ECX, EAX)  // ecx = 10
		b.AddRR(ECX, EBX)  // ecx = 13
		b.SubRI(ECX, 1)    // ecx = 12
		b.ImulRR(ECX, EBX) // ecx = 36
		b.DivRR(ECX, EBX)  // ecx = 12
		b.Halt()
	})
	if s.Regs[ECX] != 12 {
		t.Fatalf("ecx = %d, want 12", s.Regs[ECX])
	}
}

func TestFlagsAddSub(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, -1)
		b.AddRI(EAX, 1) // 0: ZF, CF set
		b.Halt()
	})
	if s.Flags&FlagZF == 0 {
		t.Error("ZF not set after -1+1")
	}
	if s.Flags&FlagCF == 0 {
		t.Error("CF not set after 0xffffffff+1")
	}
	if s.Flags&flagOF != 0 {
		t.Error("OF wrongly set after -1+1")
	}

	s, _ = run(t, func(b *Builder) {
		b.MovRI(EAX, 0x7fffffff)
		b.AddRI(EAX, 1) // signed overflow
		b.Halt()
	})
	if s.Flags&flagOF == 0 {
		t.Error("OF not set after INT_MAX+1")
	}
	if s.Flags&FlagSF == 0 {
		t.Error("SF not set after INT_MAX+1")
	}
}

func TestFlagsCmpBranches(t *testing.T) {
	// For each (a, b, cond, expected) check the branch direction.
	cases := []struct {
		a, b int32
		c    Cond
		take bool
	}{
		{5, 5, CondE, true},
		{5, 4, CondE, false},
		{5, 4, CondNE, true},
		{-3, 2, CondL, true},
		{2, -3, CondL, false},
		{2, -3, CondG, true},
		{-3, -3, CondLE, true},
		{-3, -3, CondGE, true},
		{1, 2, CondB, true},   // unsigned below
		{-1, 2, CondB, false}, // 0xffffffff not below 2
		{-1, 2, CondAE, true},
		{-5, 0, CondS, true},
		{5, 0, CondNS, true},
	}
	for _, tc := range cases {
		s, _ := run(t, func(b *Builder) {
			b.MovRI(EAX, tc.a)
			b.MovRI(EBX, tc.b)
			b.MovRI(ECX, 0)
			b.CmpRR(EAX, EBX)
			b.Jcc(tc.c, "taken")
			b.Jmp("done")
			b.Label("taken")
			b.MovRI(ECX, 1)
			b.Label("done")
			b.Halt()
		})
		got := s.Regs[ECX] == 1
		if got != tc.take {
			t.Errorf("cmp(%d,%d) j%s: taken=%v, want %v", tc.a, tc.b, tc.c, got, tc.take)
		}
	}
}

func TestIncDecPreserveCF(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, -1)
		b.AddRI(EAX, 1) // sets CF
		b.Inc(EBX)      // must preserve CF
		b.Halt()
	})
	if s.Flags&FlagCF == 0 {
		t.Error("INC clobbered CF")
	}
	if s.Flags&FlagZF != 0 {
		t.Error("INC should have cleared ZF (ebx=1)")
	}
}

func TestShifts(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 1)
		b.Shl(EAX, 4) // 16
		b.MovRI(EBX, -16)
		b.Sar(EBX, 2) // -4
		b.MovRI(ECX, -16)
		b.Shr(ECX, 28) // logical: 0xF
		b.Halt()
	})
	if s.Regs[EAX] != 16 {
		t.Errorf("shl: %d", s.Regs[EAX])
	}
	if int32(s.Regs[EBX]) != -4 {
		t.Errorf("sar: %d", int32(s.Regs[EBX]))
	}
	if s.Regs[ECX] != 0xF {
		t.Errorf("shr: %#x", s.Regs[ECX])
	}
}

func TestMemoryOps(t *testing.T) {
	s, m := run(t, func(b *Builder) {
		b.MovRI(EBP, int32(mem.GuestDataBase))
		b.MovRI(EAX, 0x1234)
		b.Store(EBP, 8, EAX)
		b.Load(EBX, EBP, 8)
		b.MovRI(ESI, 2)
		b.MovRI(EDX, 0x99)
		b.StoreIdx(EBP, ESI, 4, 0, EDX) // [ebp+8] = 0x99
		b.LoadIdx(EDI, EBP, ESI, 4, 0)
		b.Halt()
	})
	if s.Regs[EBX] != 0x1234 {
		t.Errorf("load: %#x", s.Regs[EBX])
	}
	if s.Regs[EDI] != 0x99 {
		t.Errorf("loadidx: %#x", s.Regs[EDI])
	}
	if got := m.Read32(mem.GuestDataBase + 8); got != 0x99 {
		t.Errorf("mem: %#x", got)
	}
}

func TestPushPop(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 111)
		b.MovRI(EBX, 222)
		b.Push(EAX)
		b.Push(EBX)
		b.Pop(ECX) // 222
		b.Pop(EDX) // 111
		b.Halt()
	})
	if s.Regs[ECX] != 222 || s.Regs[EDX] != 111 {
		t.Fatalf("push/pop: ecx=%d edx=%d", s.Regs[ECX], s.Regs[EDX])
	}
	if s.Regs[ESP] != mem.GuestStackTop {
		t.Fatalf("esp not restored: %#x", s.Regs[ESP])
	}
}

func TestCallRet(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.Label("start")
		b.MovRI(EAX, 1)
		b.Call("fn")
		b.AddRI(EAX, 100) // after return: 1*2+100 = 102
		b.Halt()
		b.Label("fn")
		b.AddRR(EAX, EAX)
		b.Ret()
	})
	if s.Regs[EAX] != 102 {
		t.Fatalf("eax = %d, want 102", s.Regs[EAX])
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.Label("start")
		b.MovLabel(EAX, "target")
		b.JmpInd(EAX)
		b.MovRI(EBX, 999) // skipped
		b.Halt()
		b.Label("target")
		b.MovRI(EBX, 7)
		b.MovLabel(ECX, "fn")
		b.CallInd(ECX)
		b.Halt()
		b.Label("fn")
		b.AddRI(EBX, 1)
		b.Ret()
	})
	if s.Regs[EBX] != 8 {
		t.Fatalf("ebx = %d, want 8", s.Regs[EBX])
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 via a loop; exercises CMP/JCC back edges.
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 0) // sum
		b.MovRI(ECX, 1) // i
		b.Label("loop")
		b.AddRR(EAX, ECX)
		b.Inc(ECX)
		b.CmpRI(ECX, 101)
		b.Jcc(CondNE, "loop")
		b.Halt()
	})
	if s.Regs[EAX] != 5050 {
		t.Fatalf("sum = %d, want 5050", s.Regs[EAX])
	}
}

func TestFloatingPoint(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 7)
		b.CvtIF(0, EAX) // f0 = 7.0
		b.MovRI(EBX, 2)
		b.CvtIF(1, EBX) // f1 = 2.0
		b.FMov(2, 0)
		b.FDiv(2, 1)    // f2 = 3.5
		b.FAdd(0, 1)    // f0 = 9.0
		b.FMul(0, 1)    // f0 = 18.0
		b.FSub(0, 1)    // f0 = 16.0
		b.CvtFI(ECX, 2) // ecx = 3 (truncated)
		b.MovRI(EBP, int32(mem.GuestDataBase))
		b.FStore(EBP, 0, 0)
		b.FLoad(3, EBP, 0)
		b.CvtFI(EDX, 3) // edx = 16
		b.Halt()
	})
	if s.Regs[ECX] != 3 {
		t.Errorf("cvtfi trunc = %d, want 3", s.Regs[ECX])
	}
	if s.Regs[EDX] != 16 {
		t.Errorf("fp store/load = %d, want 16", s.Regs[EDX])
	}
}

func TestFCmpFlags(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 1)
		b.CvtIF(0, EAX)
		b.MovRI(EBX, 2)
		b.CvtIF(1, EBX)
		b.MovRI(ECX, 0)
		b.FCmp(0, 1) // 1 < 2: CF
		b.Jcc(CondB, "less")
		b.Jmp("done")
		b.Label("less")
		b.MovRI(ECX, 1)
		b.Label("done")
		b.Halt()
	})
	if s.Regs[ECX] != 1 {
		t.Fatal("fcmp/jb did not take less path")
	}
}

func TestDivByZeroDefined(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 5)
		b.MovRI(EBX, 0)
		b.DivRR(EAX, EBX)
		b.Halt()
	})
	if s.Regs[EAX] != 0xffff_ffff {
		t.Fatalf("div by zero = %#x, want all-ones", s.Regs[EAX])
	}
}

func TestNegNot(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EAX, 5)
		b.Neg(EAX) // -5
		b.MovRI(EBX, 0)
		b.Not(EBX) // 0xffffffff
		b.Halt()
	})
	if int32(s.Regs[EAX]) != -5 {
		t.Errorf("neg: %d", int32(s.Regs[EAX]))
	}
	if s.Regs[EBX] != 0xffff_ffff {
		t.Errorf("not: %#x", s.Regs[EBX])
	}
	if s.Flags&FlagCF == 0 {
		t.Error("neg of nonzero should set CF")
	}
}

func TestLea(t *testing.T) {
	s, _ := run(t, func(b *Builder) {
		b.MovRI(EBX, 100)
		b.MovRI(EAX, -1)
		b.AddRI(EAX, 1) // set CF+ZF
		b.Lea(ECX, EBX, 28)
		b.Halt()
	})
	if s.Regs[ECX] != 128 {
		t.Errorf("lea: %d", s.Regs[ECX])
	}
	if s.Flags&FlagZF == 0 {
		t.Error("lea must not clobber flags")
	}
}

func TestStateEqualAndDiff(t *testing.T) {
	var a, b State
	if !a.Equal(&b) || a.Diff(&b) != "" {
		t.Fatal("zero states should be equal")
	}
	b.Regs[EDX] = 1
	if a.Equal(&b) {
		t.Fatal("states differ in edx")
	}
	if d := a.Diff(&b); d == "" {
		t.Fatal("Diff should report edx")
	}
	b = a
	b.Flags = FlagZF
	if a.Equal(&b) {
		t.Fatal("states differ in flags")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label should fail Build")
	}

	b = NewBuilder()
	b.Label("x")
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label should fail Build")
	}
}

func TestBuilderAddrOf(t *testing.T) {
	b := NewBuilder()
	b.Nop() // 1 byte
	b.Label("l")
	b.Halt()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	addr, ok := b.AddrOf("l")
	if !ok || addr != mem.GuestCodeBase+1 {
		t.Fatalf("AddrOf(l) = %#x, %v", addr, ok)
	}
}

func TestHaltKeepsEIP(t *testing.T) {
	b := NewBuilder()
	b.Halt()
	p := b.MustBuild()
	m := mem.NewSparse()
	s := p.LoadInto(m)
	var res StepResult
	if err := Step(&s, m, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("expected halt")
	}
	if s.EIP != p.Entry {
		t.Fatalf("EIP moved past halt: %#x", s.EIP)
	}
}
