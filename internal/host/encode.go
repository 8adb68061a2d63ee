package host

import (
	"errors"
	"fmt"
)

// Canonical 8-byte serialization of a host instruction:
//
//	byte 0: opcode
//	byte 1: rd
//	byte 2: rs1
//	byte 3: rs2
//	bytes 4-7: imm, little-endian
//
// This is a storage format (code cache persistence, round-trip tests);
// the architectural instruction size remains InstBytes.

// EncodedBytes is the serialized size of one instruction.
const EncodedBytes = 8

// ErrTruncated is returned when fewer than EncodedBytes are available.
var ErrTruncated = errors.New("host: truncated instruction record")

// Encode appends the canonical serialization of inst to dst.
func Encode(dst []byte, inst Inst) []byte {
	if inst.Op >= NumOps {
		panic(fmt.Sprintf("host: encode invalid opcode %d", inst.Op))
	}
	return append(dst,
		byte(inst.Op), byte(inst.Rd), byte(inst.Rs1), byte(inst.Rs2),
		byte(inst.Imm), byte(inst.Imm>>8), byte(inst.Imm>>16), byte(inst.Imm>>24))
}

// Decode decodes one instruction record from the start of b.
func Decode(b []byte) (Inst, error) {
	if len(b) < EncodedBytes {
		return Inst{}, ErrTruncated
	}
	op := Op(b[0])
	if op >= NumOps {
		return Inst{}, fmt.Errorf("host: undefined opcode byte %#02x", b[0])
	}
	if b[1] >= NumRegs || b[2] >= NumRegs || b[3] >= NumRegs {
		return Inst{}, fmt.Errorf("host: register out of range in %s", op)
	}
	return Inst{
		Op:  op,
		Rd:  Reg(b[1]),
		Rs1: Reg(b[2]),
		Rs2: Reg(b[3]),
		Imm: int32(uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24),
	}, nil
}

// LoadImm32 appends the canonical two-instruction sequence materializing
// a 32-bit constant into rd (lui + ori). When the constant fits in the
// unsigned 16-bit ori immediate a single instruction is emitted; the
// translator relies on this to keep short constants cheap.
func LoadImm32(dst []Inst, rd Reg, v uint32) []Inst {
	hi := v >> 16
	lo := v & 0xffff
	if hi == 0 {
		return append(dst, Inst{Op: Ori, Rd: rd, Rs1: RZero, Imm: int32(lo)})
	}
	dst = append(dst, Inst{Op: Lui, Rd: rd, Imm: int32(hi)})
	if lo != 0 {
		dst = append(dst, Inst{Op: Ori, Rd: rd, Rs1: rd, Imm: int32(lo)})
	}
	return dst
}

// loadImmLen reports how many instructions LoadImm32 will emit for v.
func loadImmLen(v uint32) int {
	hi := v >> 16
	lo := v & 0xffff
	switch {
	case hi == 0:
		return 1
	case lo == 0:
		return 1
	default:
		return 2
	}
}
