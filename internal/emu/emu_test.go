package emu

import (
	"testing"

	"repro/internal/guest"
)

func fibProgram(n int32) *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0) // fib(0)
	b.MovRI(guest.EBX, 1) // fib(1)
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

func TestFibonacci(t *testing.T) {
	e := New(fibProgram(20))
	if err := e.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[guest.EAX] != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", e.State.Regs[guest.EAX])
	}
	if !e.Halted {
		t.Fatal("not halted")
	}
}

func TestStatsCounted(t *testing.T) {
	e := New(fibProgram(10))
	if err := e.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if e.DynInsts == 0 || e.DynBranches == 0 {
		t.Fatalf("stats empty: insts=%d branches=%d", e.DynInsts, e.DynBranches)
	}
	// 3 setup + 10 iterations of 7 (cmp,jcc,mov,add,mov,dec,jmp) +
	// final cmp+jcc = 75.
	if e.DynInsts != 75 {
		t.Fatalf("DynInsts = %d, want 75", e.DynInsts)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("start")
	b.Jmp("start") // infinite loop
	p := b.MustBuild()
	e := New(p)
	if err := e.Run(1000); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestStepAfterHaltIsNoop(t *testing.T) {
	e := New(fibProgram(1))
	if err := e.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	n := e.DynInsts
	res, err := e.Step()
	if err != nil || !res.Halted {
		t.Fatalf("step after halt: res=%+v err=%v", res, err)
	}
	if e.DynInsts != n {
		t.Fatal("halted step changed stats")
	}
}

func TestStepN(t *testing.T) {
	e := New(fibProgram(10))
	done, err := e.StepN(5)
	if err != nil || done != 5 {
		t.Fatalf("StepN = %d, %v", done, err)
	}
	if e.DynInsts != 5 {
		t.Fatalf("DynInsts = %d", e.DynInsts)
	}
}

func TestIndirectHistogram(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovLabel(guest.EAX, "t1")
	b.JmpInd(guest.EAX)
	b.Label("t1")
	b.MovLabel(guest.EAX, "t2")
	b.JmpInd(guest.EAX)
	b.Label("t2")
	b.Halt()
	e := New(b.MustBuild())
	e.TakenTargets = make(map[uint32]uint64)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.DynIndirect != 2 {
		t.Fatalf("DynIndirect = %d, want 2", e.DynIndirect)
	}
	if len(e.TakenTargets) != 2 {
		t.Fatalf("histogram has %d targets", len(e.TakenTargets))
	}
}
