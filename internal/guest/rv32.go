package guest

import (
	"fmt"

	"repro/internal/mem"
)

// RV32I frontend: real RISC-V RV32I encodings (R/I/S/B/U/J formats,
// little-endian four-byte words) decoded into the shared Inst form via
// the RISC-family opcodes. The supported subset is deliberately small
// but real:
//
//   - integer register-register and register-immediate ALU (OP/OP-IMM)
//   - lui / auipc (auipc folds the PC at decode time)
//   - jal / jalr / the six conditional branches (compare-and-branch;
//     there is no flags register)
//   - lw / sw (32-bit only, matching the shared memory semantics)
//   - ebreak / ecall, both of which halt the guest
//
// Registers are restricted to x0..x15 (an RV32E-style register file;
// x16..x31 decode to an error), so guest state fits the shared
// State.Regs file alongside x86. x0 is the hardwired zero: the shared
// step semantics and the translator both discard writes to it.

// RV32InstBytes is the fixed RV32I encoding width.
const RV32InstBytes = 4

// rv32NumRegs is the exposed integer register count (x0..x15).
const rv32NumRegs = 16

// RV32 is the RISC-V RV32I guest frontend.
var RV32 = &ISA{
	Name:        "rv32",
	MaxInstSize: RV32InstBytes,
	InstShift:   2,
	NumRegs:     rv32NumRegs,
	HasFlags:    false,
	HasFP:       false,
	DecodeAt:    decodeRV32,
	RegName:     func(r int) string { return fmt.Sprintf("x%d", r) },
	InitState: func(s *State, entry uint32) {
		*s = State{EIP: entry}
		s.Regs[2] = mem.GuestStackTop // x2 is sp in the RISC-V ABI
	},
}

func init() {
	RegisterISA(RV32)
}

// ErrRV32Truncated reports fewer than four bytes of encoding.
var ErrRV32Truncated = fmt.Errorf("guest: truncated rv32 instruction")

func rv32Reg(n uint32) (Reg, error) {
	if n >= rv32NumRegs {
		return 0, fmt.Errorf("guest: rv32 register x%d outside the supported x0..x15 file", n)
	}
	return Reg(n), nil
}

// decodeRV32 decodes one RV32I instruction whose four-byte
// little-endian encoding starts at b and whose address is pc.
func decodeRV32(b []byte, pc uint32) (Inst, error) {
	if len(b) < RV32InstBytes {
		return Inst{}, ErrRV32Truncated
	}
	w := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	in := Inst{Size: RV32InstBytes}

	opcode := w & 0x7f
	rd := (w >> 7) & 0x1f
	funct3 := (w >> 12) & 0x7
	rs1 := (w >> 15) & 0x1f
	rs2 := (w >> 20) & 0x1f
	funct7 := w >> 25
	iImm := int32(w) >> 20 // sign-extended 12-bit I-immediate

	badEnc := func(what string) (Inst, error) {
		return Inst{}, fmt.Errorf("guest: unsupported rv32 %s (word %#08x)", what, w)
	}

	switch opcode {
	case 0x33: // OP: register-register ALU
		r1, err := rv32Reg(rd)
		if err != nil {
			return Inst{}, err
		}
		r2, err := rv32Reg(rs1)
		if err != nil {
			return Inst{}, err
		}
		rb, err := rv32Reg(rs2)
		if err != nil {
			return Inst{}, err
		}
		in.R1, in.R2, in.RB = r1, r2, rb
		switch {
		case funct3 == 0 && funct7 == 0:
			in.Op = OpAdd3
		case funct3 == 0 && funct7 == 0x20:
			in.Op = OpSub3
		case funct3 == 1 && funct7 == 0:
			in.Op = OpSll3
		case funct3 == 2 && funct7 == 0:
			in.Op = OpSlt3
		case funct3 == 3 && funct7 == 0:
			in.Op = OpSltu3
		case funct3 == 4 && funct7 == 0:
			in.Op = OpXor3
		case funct3 == 5 && funct7 == 0:
			in.Op = OpSrl3
		case funct3 == 5 && funct7 == 0x20:
			in.Op = OpSra3
		case funct3 == 6 && funct7 == 0:
			in.Op = OpOr3
		case funct3 == 7 && funct7 == 0:
			in.Op = OpAnd3
		default:
			return badEnc("OP funct7/funct3") // M extension lands here
		}

	case 0x13: // OP-IMM
		r1, err := rv32Reg(rd)
		if err != nil {
			return Inst{}, err
		}
		r2, err := rv32Reg(rs1)
		if err != nil {
			return Inst{}, err
		}
		in.R1, in.R2, in.Imm = r1, r2, iImm
		switch funct3 {
		case 0:
			in.Op = OpAddI3
		case 2:
			in.Op = OpSltI3
		case 3:
			in.Op = OpSltuI3
		case 4:
			in.Op = OpXorI3
		case 6:
			in.Op = OpOrI3
		case 7:
			in.Op = OpAndI3
		case 1:
			if funct7 != 0 {
				return badEnc("slli funct7")
			}
			in.Op, in.Imm = OpSllI3, int32(rs2)
		case 5:
			switch funct7 {
			case 0:
				in.Op, in.Imm = OpSrlI3, int32(rs2)
			case 0x20:
				in.Op, in.Imm = OpSraI3, int32(rs2)
			default:
				return badEnc("srli/srai funct7")
			}
		}

	case 0x37, 0x17: // LUI / AUIPC
		r1, err := rv32Reg(rd)
		if err != nil {
			return Inst{}, err
		}
		imm := w & 0xffff_f000
		if opcode == 0x17 {
			imm += pc // auipc: PC folded at decode time (cached per exact PC)
		}
		in.Op, in.R1, in.Imm = OpMovRI, r1, int32(imm)
		if r1 == 0 {
			in.Op = OpNop // lui/auipc x0 would write through OpMovRI's x86 path
		}

	case 0x6f: // JAL
		r1, err := rv32Reg(rd)
		if err != nil {
			return Inst{}, err
		}
		// J-immediate: imm[20|10:1|11|19:12], PC-relative. The shared
		// IR stores branch offsets relative to the instruction's end.
		imm := int32(w&0x8000_0000)>>11 | // imm[20]
			int32(w&0x000f_f000) | // imm[19:12]
			int32(w>>9)&0x800 | // imm[11]
			int32(w>>20)&0x7fe // imm[10:1]
		in.Op, in.R1, in.Imm = OpJal, r1, imm-RV32InstBytes

	case 0x67: // JALR
		if funct3 != 0 {
			return badEnc("jalr funct3")
		}
		r1, err := rv32Reg(rd)
		if err != nil {
			return Inst{}, err
		}
		r2, err := rv32Reg(rs1)
		if err != nil {
			return Inst{}, err
		}
		in.Op, in.R1, in.R2, in.Imm = OpJalr, r1, r2, iImm

	case 0x63: // BRANCH
		r1, err := rv32Reg(rs1)
		if err != nil {
			return Inst{}, err
		}
		r2, err := rv32Reg(rs2)
		if err != nil {
			return Inst{}, err
		}
		var cond Cond
		switch funct3 {
		case 0:
			cond = CondE
		case 1:
			cond = CondNE
		case 4:
			cond = CondL
		case 5:
			cond = CondGE
		case 6:
			cond = CondB
		case 7:
			cond = CondAE
		default:
			return badEnc("branch funct3")
		}
		// B-immediate: imm[12|10:5|4:1|11], PC-relative.
		imm := int32(w&0x8000_0000)>>19 | // imm[12]
			int32(w<<4)&0x800 | // imm[11]
			int32(w>>20)&0x7e0 | // imm[10:5]
			int32(w>>7)&0x1e // imm[4:1]
		in.Op, in.R1, in.R2, in.Cond, in.Imm = OpBcc, r1, r2, cond, imm-RV32InstBytes

	case 0x03: // LOAD
		if funct3 != 2 {
			return badEnc("load width (only lw)")
		}
		r1, err := rv32Reg(rd)
		if err != nil {
			return Inst{}, err
		}
		rb, err := rv32Reg(rs1)
		if err != nil {
			return Inst{}, err
		}
		if r1 == 0 {
			// lw x0 discards the loaded value. The shared OpLoad writes
			// its destination unconditionally (x86 register 0 is EAX),
			// so the discard form decodes as a nop — loads have no side
			// effects in this machine, making the two equivalent.
			in.Op = OpNop
			break
		}
		in.Op, in.R1, in.RB, in.Imm = OpLoad, r1, rb, iImm

	case 0x23: // STORE
		if funct3 != 2 {
			return badEnc("store width (only sw)")
		}
		rb, err := rv32Reg(rs1)
		if err != nil {
			return Inst{}, err
		}
		r1, err := rv32Reg(rs2)
		if err != nil {
			return Inst{}, err
		}
		// S-immediate: imm[11:5|4:0].
		imm := int32(w)>>20&^0x1f | int32(rd)
		in.Op, in.R1, in.RB, in.Imm = OpStore, r1, rb, imm

	case 0x73: // SYSTEM: ecall/ebreak halt the guest
		if w == 0x0000_0073 || w == 0x0010_0073 {
			in.Op = OpHalt
			break
		}
		return badEnc("SYSTEM function")

	default:
		return Inst{}, fmt.Errorf("guest: bad rv32 opcode %#02x (word %#08x)", opcode, w)
	}
	return in, nil
}
