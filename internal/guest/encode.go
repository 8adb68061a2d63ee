package guest

import (
	"errors"
	"fmt"
)

// Encoding formats. The guest ISA uses variable-length encodings from
// 1 to 7 bytes, exercising the variable-length decode path of the
// interpreter and translator the same way an x86 front end would.
//
//	fmt0     [op]                               1 byte
//	fmtRR    [op][r1<<4|r2]                     2 bytes
//	fmtShift [op][r1][imm8]                     3 bytes
//	fmtRel   [op][rel32]                        5 bytes
//	fmtRI    [op][r1][imm32]                    6 bytes
//	fmtMem   [op][r1<<4|rb][disp32]             6 bytes
//	fmtCC    [op][cond][rel32]                  6 bytes
//	fmtMemX  [op][r1<<4|rb][ri<<4|log2scale][disp32]  7 bytes
//
// Relative branch offsets are relative to the address of the following
// instruction, matching x86 semantics.

// errTruncated is returned when the byte buffer ends mid-instruction.
var errTruncated = errors.New("guest: truncated instruction")

// errBadOpcode is returned for undefined opcode bytes.
var errBadOpcode = errors.New("guest: undefined opcode")

// numX86Ops bounds the opcodes that exist in the x86 encoding. The
// RISC-family opcodes appended after it share the Inst form but have
// no x86 byte encoding; without this bound they would fall into the
// formatOf table's zero value (fmt0) and silently decode as one-byte
// instructions.
const numX86Ops = OpAdd3

type encFormat uint8

const (
	fmt0 encFormat = iota
	fmtRR
	fmtShift
	fmtRel
	fmtRI
	fmtMem
	fmtCC
	fmtMemX
)

var formatOf = [NumOps]encFormat{
	OpNop: fmt0, OpHalt: fmt0, OpRet: fmt0,

	OpMovRR: fmtRR, OpAddRR: fmtRR, OpSubRR: fmtRR, OpAndRR: fmtRR,
	OpOrRR: fmtRR, OpXorRR: fmtRR, OpCmpRR: fmtRR, OpTestRR: fmtRR,
	OpImulRR: fmtRR, OpDivRR: fmtRR,
	OpIncR: fmtRR, OpDecR: fmtRR, OpNegR: fmtRR, OpNotR: fmtRR,
	OpPushR: fmtRR, OpPopR: fmtRR,
	OpJmpInd: fmtRR, OpCallInd: fmtRR,
	OpFMovRR: fmtRR, OpFAdd: fmtRR, OpFSub: fmtRR, OpFMul: fmtRR,
	OpFDiv: fmtRR, OpFCmp: fmtRR, OpCvtIF: fmtRR, OpCvtFI: fmtRR,

	OpShlRI: fmtShift, OpShrRI: fmtShift, OpSarRI: fmtShift,

	OpJmp: fmtRel, OpCallRel: fmtRel,

	OpMovRI: fmtRI, OpAddRI: fmtRI, OpSubRI: fmtRI, OpAndRI: fmtRI,
	OpOrRI: fmtRI, OpXorRI: fmtRI, OpCmpRI: fmtRI,

	OpLoad: fmtMem, OpStore: fmtMem, OpLea: fmtMem,
	OpFLoad: fmtMem, OpFStore: fmtMem,

	OpJcc: fmtCC,

	OpLoadIdx: fmtMemX, OpStoreIdx: fmtMemX,
}

var formatSize = [...]uint8{
	fmt0: 1, fmtRR: 2, fmtShift: 3, fmtRel: 5, fmtRI: 6, fmtMem: 6,
	fmtCC: 6, fmtMemX: 7,
}

// sizeOf returns the encoded size in bytes of instructions with opcode op.
func sizeOf(op Op) int {
	if op >= numX86Ops {
		return 0
	}
	return int(formatSize[formatOf[op]])
}

// maxInstSize is the longest guest instruction encoding in bytes.
const maxInstSize = 7

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func log2scale(s uint8) uint8 {
	switch s {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	panic(fmt.Sprintf("guest: invalid scale %d", s))
}

// encode appends the encoding of inst to dst and returns the extended
// slice. It panics on malformed instructions (invalid opcode, register
// out of range), which indicates a generator bug rather than bad input
// data.
func encode(dst []byte, inst Inst) []byte {
	if inst.Op >= numX86Ops {
		panic(fmt.Sprintf("guest: encode opcode %d has no x86 encoding", inst.Op))
	}
	f := formatOf[inst.Op]
	var buf [maxInstSize]byte
	buf[0] = byte(inst.Op)
	switch f {
	case fmt0:
	case fmtRR:
		// FP ops pack FP register numbers in the same nibbles; CvtIF and
		// CvtFI mix one integer and one FP register.
		hi, lo := uint8(inst.R1), uint8(inst.R2)
		switch inst.Op {
		case OpFMovRR, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmp:
			hi, lo = uint8(inst.F1), uint8(inst.F2)
		case OpCvtIF:
			hi, lo = uint8(inst.F1), uint8(inst.R2)
		case OpCvtFI:
			hi, lo = uint8(inst.R1), uint8(inst.F2)
		}
		checkNibble(hi)
		checkNibble(lo)
		buf[1] = hi<<4 | lo
	case fmtShift:
		checkNibble(uint8(inst.R1))
		buf[1] = uint8(inst.R1)
		buf[2] = byte(inst.Imm)
	case fmtRel:
		put32(buf[1:], uint32(inst.Imm))
	case fmtRI:
		checkNibble(uint8(inst.R1))
		buf[1] = uint8(inst.R1)
		put32(buf[2:], uint32(inst.Imm))
	case fmtMem:
		hi := uint8(inst.R1)
		if inst.Op == OpFLoad || inst.Op == OpFStore {
			hi = uint8(inst.F1)
		}
		checkNibble(hi)
		checkNibble(uint8(inst.RB))
		buf[1] = hi<<4 | uint8(inst.RB)
		put32(buf[2:], uint32(inst.Imm))
	case fmtCC:
		if inst.Cond >= NumConds {
			panic(fmt.Sprintf("guest: encode invalid condition %d", inst.Cond))
		}
		buf[1] = byte(inst.Cond)
		put32(buf[2:], uint32(inst.Imm))
	case fmtMemX:
		checkNibble(uint8(inst.R1))
		checkNibble(uint8(inst.RB))
		checkNibble(uint8(inst.RI))
		buf[1] = uint8(inst.R1)<<4 | uint8(inst.RB)
		buf[2] = uint8(inst.RI)<<4 | log2scale(inst.Scale)
		put32(buf[3:], uint32(inst.Imm))
	}
	return append(dst, buf[:formatSize[f]]...)
}

func checkNibble(v uint8) {
	if v > 15 {
		panic(fmt.Sprintf("guest: register %d does not fit encoding", v))
	}
}

// decode decodes the instruction at the start of b. The returned
// instruction's Size field is set to the number of bytes consumed.
func decode(b []byte) (Inst, error) {
	if len(b) == 0 {
		return Inst{}, errTruncated
	}
	op := Op(b[0])
	if op >= numX86Ops {
		return Inst{}, fmt.Errorf("%w: byte %#02x", errBadOpcode, b[0])
	}
	f := formatOf[op]
	size := int(formatSize[f])
	if len(b) < size {
		return Inst{}, errTruncated
	}
	inst := Inst{Op: op, Size: uint8(size), Scale: 1}
	switch f {
	case fmt0:
	case fmtRR:
		hi, lo := b[1]>>4, b[1]&0xf
		switch op {
		case OpFMovRR, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmp:
			inst.F1, inst.F2 = FReg(hi), FReg(lo)
			if hi >= NumFRegs || lo >= NumFRegs {
				return Inst{}, fmt.Errorf("guest: FP register out of range in %s", op)
			}
		case OpCvtIF:
			inst.F1, inst.R2 = FReg(hi), Reg(lo)
		case OpCvtFI:
			inst.R1, inst.F2 = Reg(hi), FReg(lo)
		default:
			inst.R1, inst.R2 = Reg(hi), Reg(lo)
		}
		if err := checkIntRegs(&inst); err != nil {
			return Inst{}, err
		}
	case fmtShift:
		inst.R1 = Reg(b[1])
		inst.Imm = int32(b[2])
		if err := checkIntRegs(&inst); err != nil {
			return Inst{}, err
		}
	case fmtRel:
		inst.Imm = int32(get32(b[1:]))
	case fmtRI:
		inst.R1 = Reg(b[1])
		inst.Imm = int32(get32(b[2:]))
		if err := checkIntRegs(&inst); err != nil {
			return Inst{}, err
		}
	case fmtMem:
		hi := b[1] >> 4
		if op == OpFLoad || op == OpFStore {
			inst.F1 = FReg(hi)
			if hi >= NumFRegs {
				return Inst{}, fmt.Errorf("guest: FP register out of range in %s", op)
			}
		} else {
			inst.R1 = Reg(hi)
		}
		inst.RB = Reg(b[1] & 0xf)
		inst.Imm = int32(get32(b[2:]))
		if err := checkIntRegs(&inst); err != nil {
			return Inst{}, err
		}
	case fmtCC:
		if Cond(b[1]) >= NumConds {
			return Inst{}, fmt.Errorf("guest: invalid condition byte %#02x", b[1])
		}
		inst.Cond = Cond(b[1])
		inst.Imm = int32(get32(b[2:]))
	case fmtMemX:
		inst.R1 = Reg(b[1] >> 4)
		inst.RB = Reg(b[1] & 0xf)
		inst.RI = Reg(b[2] >> 4)
		inst.Scale = 1 << (b[2] & 0x3)
		inst.Imm = int32(get32(b[3:]))
		if err := checkIntRegs(&inst); err != nil {
			return Inst{}, err
		}
	}
	return inst, nil
}

func checkIntRegs(i *Inst) error {
	if i.R1 >= NumRegs || i.R2 >= NumRegs || i.RB >= NumRegs || i.RI >= NumRegs {
		return fmt.Errorf("guest: register out of range in %s", i.Op)
	}
	return nil
}
