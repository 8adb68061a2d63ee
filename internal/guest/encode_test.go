package guest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randInst produces a random but well-formed instruction for the given
// opcode, suitable for encode/decode round-trip testing.
func randInst(r *rand.Rand, op Op) Inst {
	inst := Inst{Op: op, Scale: 1}
	inst.R1 = Reg(r.Intn(NumRegs))
	inst.R2 = Reg(r.Intn(NumRegs))
	inst.RB = Reg(r.Intn(NumRegs))
	inst.RI = Reg(r.Intn(NumRegs))
	inst.F1 = FReg(r.Intn(NumFRegs))
	inst.F2 = FReg(r.Intn(NumFRegs))
	inst.Cond = Cond(r.Intn(int(NumConds)))
	inst.Imm = int32(r.Uint32())
	switch formatOf[op] {
	case fmt0:
		inst = Inst{Op: op, Scale: 1}
	case fmtShift:
		inst.Imm = int32(r.Intn(256))
	case fmtMemX:
		inst.Scale = 1 << r.Intn(4)
	}
	// Clear fields the format does not carry so round-trip equality holds.
	switch formatOf[op] {
	case fmtRR:
		inst.RB, inst.RI, inst.Imm = 0, 0, 0
		switch op {
		case OpFMovRR, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmp:
			inst.R1, inst.R2 = 0, 0
		case OpCvtIF:
			inst.R1, inst.F2 = 0, 0
		case OpCvtFI:
			inst.R2, inst.F1 = 0, 0
		default:
			inst.F1, inst.F2 = 0, 0
		}
	case fmtShift:
		inst.R2, inst.RB, inst.RI, inst.F1, inst.F2 = 0, 0, 0, 0, 0
	case fmtRel:
		inst.R1, inst.R2, inst.RB, inst.RI, inst.F1, inst.F2 = 0, 0, 0, 0, 0, 0
	case fmtRI:
		inst.R2, inst.RB, inst.RI, inst.F1, inst.F2 = 0, 0, 0, 0, 0
	case fmtMem:
		inst.R2, inst.RI, inst.F2 = 0, 0, 0
		if op == OpFLoad || op == OpFStore {
			inst.R1 = 0
		} else {
			inst.F1 = 0
		}
	case fmtCC:
		inst.R1, inst.R2, inst.RB, inst.RI, inst.F1, inst.F2 = 0, 0, 0, 0, 0, 0
	case fmtMemX:
		inst.R2, inst.F1, inst.F2 = 0, 0, 0
	}
	if formatOf[op] != fmtCC {
		inst.Cond = 0
	}
	return inst
}

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for op := Op(0); op < numX86Ops; op++ {
		for trial := 0; trial < 64; trial++ {
			in := randInst(r, op)
			enc := encode(nil, in)
			if len(enc) != sizeOf(op) {
				t.Fatalf("%s: encoded %d bytes, sizeOf says %d", op, len(enc), sizeOf(op))
			}
			out, err := decode(enc)
			if err != nil {
				t.Fatalf("%s: decode error: %v (inst %+v)", op, err, in)
			}
			in.Size = uint8(len(enc))
			if in.Scale == 0 {
				in.Scale = 1
			}
			if out != in {
				t.Fatalf("%s: round trip mismatch:\n in=%+v\nout=%+v", op, in, out)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decode(nil); err == nil {
		t.Fatal("decode(nil) should fail")
	}
	if _, err := decode([]byte{byte(NumOps)}); err == nil {
		t.Fatal("decode of undefined opcode should fail")
	}
	// Truncated multi-byte instruction.
	if _, err := decode([]byte{byte(OpMovRI), 0}); err != errTruncated {
		t.Fatalf("decode truncated: err=%v, want errTruncated", err)
	}
	// Out-of-range condition byte.
	if _, err := decode([]byte{byte(OpJcc), 0xff, 0, 0, 0, 0}); err == nil {
		t.Fatal("decode of bad condition should fail")
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeOfAllOpsPositive(t *testing.T) {
	for op := Op(0); op < numX86Ops; op++ {
		s := sizeOf(op)
		if s < 1 || s > maxInstSize {
			t.Fatalf("sizeOf(%s) = %d", op, s)
		}
	}
	if sizeOf(NumOps) != 0 {
		t.Fatal("sizeOf of invalid op should be 0")
	}
	// The RISC-family opcodes have no x86 encoding: sizeOf reports 0
	// and decode refuses their byte values.
	for op := numX86Ops; op < NumOps; op++ {
		if sizeOf(op) != 0 {
			t.Fatalf("sizeOf(%s) = %d, want 0 (no x86 encoding)", op, sizeOf(op))
		}
		if _, err := decode([]byte{byte(op), 0, 0, 0, 0, 0, 0}); err == nil {
			t.Fatalf("decode accepted RISC-family opcode byte %#02x", byte(op))
		}
	}
}

func TestVariableLengthEncodingSpread(t *testing.T) {
	// The ISA must actually be variable-length for the study to be
	// meaningful: verify at least 4 distinct sizes exist.
	sizes := map[int]bool{}
	for op := Op(0); op < numX86Ops; op++ {
		sizes[sizeOf(op)] = true
	}
	if len(sizes) < 4 {
		t.Fatalf("only %d distinct encoding sizes", len(sizes))
	}
}

func TestCondNegate(t *testing.T) {
	for c := Cond(0); c < NumConds; c++ {
		n := c.Negate()
		if n.Negate() != c {
			t.Fatalf("double negate of %s = %s", c, n.Negate())
		}
		// On any flag value the two must disagree... except LE/G pairs
		// share flag inputs, so verify by exhaustive flag sweep.
		for _, f := range []uint32{0, FlagZF, FlagSF, flagOF, FlagCF,
			FlagZF | FlagSF, FlagSF | flagOF, FlagZF | FlagSF | flagOF | FlagCF} {
			if c.Eval(f) == n.Eval(f) {
				t.Fatalf("cond %s and negation %s agree on flags %#x", c, n, f)
			}
		}
	}
}
