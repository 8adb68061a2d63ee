package host

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for op := Op(0); op < NumOps; op++ {
		for trial := 0; trial < 32; trial++ {
			in := Inst{
				Op:  op,
				Rd:  Reg(r.Intn(NumRegs)),
				Rs1: Reg(r.Intn(NumRegs)),
				Rs2: Reg(r.Intn(NumRegs)),
				Imm: int32(r.Uint32()),
			}
			enc := Encode(nil, in)
			if len(enc) != EncodedBytes {
				t.Fatalf("%s: %d bytes", op, len(enc))
			}
			out, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if out != in {
				t.Fatalf("%s: round trip mismatch\n in=%+v\nout=%+v", op, in, out)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0, 0, 0}); err != errTruncated {
		t.Fatalf("short decode err = %v", err)
	}
	bad := Encode(nil, Inst{Op: Nop})
	bad[0] = byte(NumOps)
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad opcode should fail")
	}
	bad2 := Encode(nil, Inst{Op: Add})
	bad2[1] = NumRegs
	if _, err := Decode(bad2); err == nil {
		t.Fatal("register out of range should fail")
	}
}

func TestLoadImm32(t *testing.T) {
	cases := []uint32{0, 1, 0xffff, 0x1_0000, 0xdead_0000, 0xdead_beef, 0xffff_ffff}
	for _, v := range cases {
		seq := LoadImm32(nil, rt0, v)
		if len(seq) != loadImmLen(v) {
			t.Fatalf("loadImmLen(%#x) = %d, emitted %d", v, loadImmLen(v), len(seq))
		}
		c := NewCPU(mem.NewSparse())
		var out Outcome
		for i := range seq {
			if err := c.Exec(&seq[i], &out); err != nil {
				t.Fatal(err)
			}
		}
		if c.R[rt0] != v {
			t.Fatalf("LoadImm32(%#x) produced %#x", v, c.R[rt0])
		}
	}
}

// execSeq runs a sequence of instructions on a fresh CPU and returns it.
func execSeq(t *testing.T, setup func(c *CPU), seq []Inst) *CPU {
	t.Helper()
	c := NewCPU(mem.NewSparse())
	if setup != nil {
		setup(c)
	}
	var out Outcome
	for i := range seq {
		if err := c.Exec(&seq[i], &out); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestALUOps(t *testing.T) {
	c := execSeq(t, func(c *CPU) {
		c.R[1] = 10
		c.R[2] = 3
	}, []Inst{
		{Op: Add, Rd: 3, Rs1: 1, Rs2: 2},    // 13
		{Op: Sub, Rd: 4, Rs1: 1, Rs2: 2},    // 7
		{Op: Mul, Rd: 5, Rs1: 1, Rs2: 2},    // 30
		{Op: Div, Rd: 6, Rs1: 1, Rs2: 2},    // 3
		{Op: And, Rd: 7, Rs1: 1, Rs2: 2},    // 2
		{Op: Or, Rd: 8, Rs1: 1, Rs2: 2},     // 11
		{Op: Xor, Rd: 9, Rs1: 1, Rs2: 2},    // 9
		{Op: Slt, Rd: 10, Rs1: 2, Rs2: 1},   // 1
		{Op: Sltu, Rd: 11, Rs1: 1, Rs2: 2},  // 0
		{Op: Addi, Rd: 12, Rs1: 1, Imm: -4}, // 6
		{Op: Slli, Rd: 13, Rs1: 2, Imm: 4},  // 48
		{Op: Srai, Rd: 14, Rs1: 1, Imm: 1},  // 5
	})
	want := map[Reg]uint32{3: 13, 4: 7, 5: 30, 6: 3, 7: 2, 8: 11, 9: 9, 10: 1, 11: 0, 12: 6, 13: 48, 14: 5}
	for r, v := range want {
		if c.R[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.R[r], v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	c := execSeq(t, nil, []Inst{
		{Op: Ori, Rd: RZero, Rs1: RZero, Imm: 0x7fff},
		{Op: Addi, Rd: RZero, Rs1: RZero, Imm: 1},
	})
	if c.R[0] != 0 {
		t.Fatalf("r0 = %d", c.R[0])
	}
}

func TestLoadStore(t *testing.T) {
	c := execSeq(t, func(c *CPU) {
		c.R[1] = 0x2000
		c.R[2] = 0xcafe
	}, []Inst{
		{Op: St, Rs1: 1, Rs2: 2, Imm: 16},
		{Op: Ld, Rd: 3, Rs1: 1, Imm: 16},
	})
	if c.R[3] != 0xcafe {
		t.Fatalf("ld = %#x", c.R[3])
	}
}

func TestBranchesAndJumps(t *testing.T) {
	c := NewCPU(mem.NewSparse())
	c.PC = 0x1000
	c.R[1] = 5
	c.R[2] = 5
	var out Outcome
	beq := Inst{Op: Beq, Rs1: 1, Rs2: 2, Imm: 0x20}
	if err := c.Exec(&beq, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Taken || c.PC != 0x1000+InstBytes+0x20 {
		t.Fatalf("beq: taken=%v pc=%#x", out.Taken, c.PC)
	}

	c.PC = 0x1000
	bne := Inst{Op: Bne, Rs1: 1, Rs2: 2, Imm: 0x20}
	if err := c.Exec(&bne, &out); err != nil {
		t.Fatal(err)
	}
	if out.Taken || c.PC != 0x1000+InstBytes {
		t.Fatalf("bne: taken=%v pc=%#x", out.Taken, c.PC)
	}

	c.PC = 0x1000
	jal := Inst{Op: Jal, Rd: rtLR, Imm: 0x100}
	if err := c.Exec(&jal, &out); err != nil {
		t.Fatal(err)
	}
	if c.R[rtLR] != 0x1004 || c.PC != 0x1104 {
		t.Fatalf("jal: lr=%#x pc=%#x", c.R[rtLR], c.PC)
	}

	c.PC = 0x1000
	c.R[4] = 0x9000
	jalr := Inst{Op: Jalr, Rd: 5, Rs1: 4, Imm: 8}
	if err := c.Exec(&jalr, &out); err != nil {
		t.Fatal(err)
	}
	if c.PC != 0x9008 || c.R[5] != 0x1004 {
		t.Fatalf("jalr: pc=%#x rd=%#x", c.PC, c.R[5])
	}
}

func TestNegativeBranchOffset(t *testing.T) {
	c := NewCPU(mem.NewSparse())
	c.PC = 0x1000
	c.R[1] = 1
	var out Outcome
	b := Inst{Op: Bne, Rs1: 1, Rs2: 0, Imm: -16}
	if err := c.Exec(&b, &out); err != nil {
		t.Fatal(err)
	}
	if c.PC != 0x1000+InstBytes-16 {
		t.Fatalf("pc = %#x", c.PC)
	}
}

func TestFPOps(t *testing.T) {
	c := execSeq(t, func(c *CPU) {
		c.R[1] = 7
		c.R[2] = 2
	}, []Inst{
		{Op: FCvtIF, Rd: 0, Rs1: 1},       // f0 = 7
		{Op: FCvtIF, Rd: 1, Rs1: 2},       // f1 = 2
		{Op: FAdd, Rd: 2, Rs1: 0, Rs2: 1}, // 9
		{Op: FMul, Rd: 3, Rs1: 0, Rs2: 1}, // 14
		{Op: FDiv, Rd: 4, Rs1: 0, Rs2: 1}, // 3.5
		{Op: FSub, Rd: 5, Rs1: 0, Rs2: 1}, // 5
		{Op: FMov, Rd: 6, Rs1: 4},
		{Op: FCvtFI, Rd: 3, Rs1: 4},      // r3 = 3
		{Op: FLt, Rd: 4, Rs1: 1, Rs2: 0}, // r4 = 1
		{Op: FEq, Rd: 5, Rs1: 0, Rs2: 0}, // r5 = 1
	})
	if c.F[2] != 9 || c.F[3] != 14 || c.F[4] != 3.5 || c.F[5] != 5 || c.F[6] != 3.5 {
		t.Fatalf("fp: %v %v %v %v %v", c.F[2], c.F[3], c.F[4], c.F[5], c.F[6])
	}
	if c.R[3] != 3 || c.R[4] != 1 || c.R[5] != 1 {
		t.Fatalf("fp->int: r3=%d r4=%d r5=%d", c.R[3], c.R[4], c.R[5])
	}
}

func TestFPLoadStore(t *testing.T) {
	c := execSeq(t, func(c *CPU) {
		c.R[1] = 0x3000
		c.R[2] = 42
	}, []Inst{
		{Op: FCvtIF, Rd: 7, Rs1: 2},
		{Op: FSt, Rs1: 1, Rs2: 7, Imm: 8},
		{Op: FLd, Rd: 8, Rs1: 1, Imm: 8},
	})
	if c.F[8] != 42 {
		t.Fatalf("fld = %v", c.F[8])
	}
}

func TestGuestRegMapping(t *testing.T) {
	if GuestReg(0) != 32 || GuestReg(7) != 39 {
		t.Fatal("guest GPR mapping wrong")
	}
	if GuestFReg(0) != 16 || GuestFReg(7) != 23 {
		t.Fatal("guest FP mapping wrong")
	}
	// TOL and app registers must not overlap.
	if rtLR >= rGuestRegBase {
		t.Fatal("TOL registers leak into app half")
	}
	if rAllocBase <= RFlags || RAllocEnd != 63 {
		t.Fatal("allocator range wrong")
	}
}

func TestExecClassLatencies(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{Add, 1}, {Mul, 2}, {Div, 2}, {FAdd, 2}, {FMul, 5}, {FDiv, 5}, {FCvtIF, 2},
	}
	for _, tc := range cases {
		i := Inst{Op: tc.op}
		if got := i.Class().Latency(); got != tc.want {
			t.Errorf("%s latency = %d, want %d", tc.op, got, tc.want)
		}
	}
}

func TestHaltOutcome(t *testing.T) {
	c := NewCPU(mem.NewSparse())
	var out Outcome
	h := Inst{Op: Halt}
	if err := c.Exec(&h, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Halted {
		t.Fatal("halt not reported")
	}
}

func TestCPUStartsWithGuestWindowBase(t *testing.T) {
	c := NewCPU(mem.NewSparse())
	if c.R[RMemBase] != mem.GuestWindowBase {
		t.Fatalf("RMemBase = %#x", c.R[RMemBase])
	}
}
