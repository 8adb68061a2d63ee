package guest

import (
	"fmt"

	"repro/internal/mem"
)

// RV32Builder assembles RV32I guest programs with symbolic labels,
// the fixed-width sibling of Builder: every instruction is four bytes,
// so label resolution is a single arithmetic pass. Emitters encode
// real RV32I words (the same bit layouts decodeRV32 consumes), keeping
// the frontend honest end to end: generated programs exercise the
// actual decoder, not a shortcut.
type RV32Builder struct {
	words  []uint32
	fixups map[int]rv32Fixup // word index -> pending label reference
	labels map[string]int    // label -> word index
	data   []DataSeg
	err    error
}

type rv32FixupKind uint8

const (
	rv32FixB rv32FixupKind = iota // B-type (branches)
	rv32FixJ                      // J-type (jal)
)

type rv32Fixup struct {
	label string
	kind  rv32FixupKind
}

// NewRV32Builder returns an empty RV32I program builder.
func NewRV32Builder() *RV32Builder {
	return &RV32Builder{
		fixups: make(map[int]rv32Fixup),
		labels: make(map[string]int),
	}
}

func (b *RV32Builder) setErr(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *RV32Builder) word(w uint32) *RV32Builder {
	b.words = append(b.words, w)
	return b
}

func (b *RV32Builder) reg(n int, role string) uint32 {
	if n < 0 || n >= rv32NumRegs {
		b.setErr("guest: rv32 builder: %s register x%d out of range", role, n)
		return 0
	}
	return uint32(n)
}

func rv32EncR(funct7, rs2, rs1, funct3, rd, opcode uint32) uint32 {
	return funct7<<25 | rs2<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

func rv32EncI(imm int32, rs1, funct3, rd, opcode uint32) uint32 {
	return uint32(imm)<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

func rv32EncS(imm int32, rs2, rs1, funct3, opcode uint32) uint32 {
	u := uint32(imm)
	return (u>>5&0x7f)<<25 | rs2<<20 | rs1<<15 | funct3<<12 | (u&0x1f)<<7 | opcode
}

func rv32EncB(imm int32, rs2, rs1, funct3 uint32) uint32 {
	u := uint32(imm)
	return (u>>12&1)<<31 | (u>>5&0x3f)<<25 | rs2<<20 | rs1<<15 |
		funct3<<12 | (u>>1&0xf)<<8 | (u>>11&1)<<7 | 0x63
}

func rv32EncJ(imm int32, rd uint32) uint32 {
	u := uint32(imm)
	return (u>>20&1)<<31 | (u>>1&0x3ff)<<21 | (u>>11&1)<<20 |
		(u>>12&0xff)<<12 | rd<<7 | 0x6f
}

func (b *RV32Builder) checkImm12(imm int32, what string) int32 {
	if imm < -2048 || imm > 2047 {
		b.setErr("guest: rv32 builder: %s immediate %d exceeds 12 bits", what, imm)
	}
	return imm
}

// Label defines a label at the current position.
func (b *RV32Builder) Label(name string) *RV32Builder {
	if _, dup := b.labels[name]; dup {
		b.setErr("guest: rv32 builder: duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.words)
	return b
}

// Data attaches an initialized data segment.
func (b *RV32Builder) Data(addr uint32, bytes []byte) *RV32Builder {
	b.data = append(b.data, DataSeg{Addr: addr, Bytes: bytes})
	return b
}

// --- register-register ALU ---

func (b *RV32Builder) rType(funct7, funct3 uint32, rd, rs1, rs2 int) *RV32Builder {
	return b.word(rv32EncR(funct7, b.reg(rs2, "rs2"), b.reg(rs1, "rs1"), funct3, b.reg(rd, "rd"), 0x33))
}

func (b *RV32Builder) Add(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0, 0, rd, rs1, rs2) }
func (b *RV32Builder) Sub(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0x20, 0, rd, rs1, rs2) }
func (b *RV32Builder) Sll(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0, 1, rd, rs1, rs2) }
func (b *RV32Builder) Slt(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0, 2, rd, rs1, rs2) }
func (b *RV32Builder) Sltu(rd, rs1, rs2 int) *RV32Builder { return b.rType(0, 3, rd, rs1, rs2) }
func (b *RV32Builder) Xor(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0, 4, rd, rs1, rs2) }
func (b *RV32Builder) Srl(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0, 5, rd, rs1, rs2) }
func (b *RV32Builder) Sra(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0x20, 5, rd, rs1, rs2) }
func (b *RV32Builder) Or(rd, rs1, rs2 int) *RV32Builder   { return b.rType(0, 6, rd, rs1, rs2) }
func (b *RV32Builder) And(rd, rs1, rs2 int) *RV32Builder  { return b.rType(0, 7, rd, rs1, rs2) }

// --- register-immediate ALU ---

func (b *RV32Builder) iType(funct3 uint32, rd, rs1 int, imm int32, what string) *RV32Builder {
	return b.word(rv32EncI(b.checkImm12(imm, what)&0xfff, b.reg(rs1, "rs1"), funct3, b.reg(rd, "rd"), 0x13))
}

func (b *RV32Builder) Addi(rd, rs1 int, imm int32) *RV32Builder {
	return b.iType(0, rd, rs1, imm, "addi")
}
func (b *RV32Builder) Slti(rd, rs1 int, imm int32) *RV32Builder {
	return b.iType(2, rd, rs1, imm, "slti")
}
func (b *RV32Builder) Sltiu(rd, rs1 int, imm int32) *RV32Builder {
	return b.iType(3, rd, rs1, imm, "sltiu")
}
func (b *RV32Builder) Xori(rd, rs1 int, imm int32) *RV32Builder {
	return b.iType(4, rd, rs1, imm, "xori")
}
func (b *RV32Builder) Ori(rd, rs1 int, imm int32) *RV32Builder {
	return b.iType(6, rd, rs1, imm, "ori")
}
func (b *RV32Builder) Andi(rd, rs1 int, imm int32) *RV32Builder {
	return b.iType(7, rd, rs1, imm, "andi")
}

func (b *RV32Builder) shiftImm(funct7, funct3 uint32, rd, rs1 int, shamt int32) *RV32Builder {
	if shamt < 0 || shamt > 31 {
		b.setErr("guest: rv32 builder: shift amount %d out of range", shamt)
		shamt = 0
	}
	return b.word(rv32EncR(funct7, uint32(shamt), b.reg(rs1, "rs1"), funct3, b.reg(rd, "rd"), 0x13))
}

func (b *RV32Builder) Slli(rd, rs1 int, shamt int32) *RV32Builder {
	return b.shiftImm(0, 1, rd, rs1, shamt)
}
func (b *RV32Builder) Srli(rd, rs1 int, shamt int32) *RV32Builder {
	return b.shiftImm(0, 5, rd, rs1, shamt)
}
func (b *RV32Builder) Srai(rd, rs1 int, shamt int32) *RV32Builder {
	return b.shiftImm(0x20, 5, rd, rs1, shamt)
}

// --- upper immediates and constants ---

// Lui loads imm20<<12 into rd.
func (b *RV32Builder) Lui(rd int, imm20 uint32) *RV32Builder {
	if imm20 > 0xfffff {
		b.setErr("guest: rv32 builder: lui immediate %#x exceeds 20 bits", imm20)
	}
	return b.word(imm20<<12 | b.reg(rd, "rd")<<7 | 0x37)
}

// Li materializes an arbitrary 32-bit constant into rd using the
// canonical lui+addi pair (one addi when the constant fits 12 signed
// bits). The addi's sign-extension is compensated by bumping the lui
// half when bit 11 is set.
func (b *RV32Builder) Li(rd int, v int32) *RV32Builder {
	if v >= -2048 && v <= 2047 {
		return b.Addi(rd, 0, v)
	}
	lo := v << 20 >> 20 // sign-extended low 12 bits
	hi := uint32(v-lo) >> 12
	b.Lui(rd, hi&0xfffff)
	if lo != 0 {
		b.Addi(rd, rd, lo)
	}
	return b
}

// --- memory ---

// Lw loads the 32-bit word at rs1+imm into rd.
func (b *RV32Builder) Lw(rd, rs1 int, imm int32) *RV32Builder {
	return b.word(rv32EncI(b.checkImm12(imm, "lw")&0xfff, b.reg(rs1, "rs1"), 2, b.reg(rd, "rd"), 0x03))
}

// Sw stores rs2 to the 32-bit word at rs1+imm.
func (b *RV32Builder) Sw(rs2, rs1 int, imm int32) *RV32Builder {
	return b.word(rv32EncS(b.checkImm12(imm, "sw"), b.reg(rs2, "rs2"), b.reg(rs1, "rs1"), 2, 0x23))
}

// --- control flow ---

func (b *RV32Builder) branch(funct3 uint32, rs1, rs2 int, label string) *RV32Builder {
	b.fixups[len(b.words)] = rv32Fixup{label: label, kind: rv32FixB}
	return b.word(rv32EncB(0, b.reg(rs2, "rs2"), b.reg(rs1, "rs1"), funct3))
}

func (b *RV32Builder) Beq(rs1, rs2 int, label string) *RV32Builder {
	return b.branch(0, rs1, rs2, label)
}
func (b *RV32Builder) Bne(rs1, rs2 int, label string) *RV32Builder {
	return b.branch(1, rs1, rs2, label)
}
func (b *RV32Builder) Blt(rs1, rs2 int, label string) *RV32Builder {
	return b.branch(4, rs1, rs2, label)
}
func (b *RV32Builder) Bge(rs1, rs2 int, label string) *RV32Builder {
	return b.branch(5, rs1, rs2, label)
}
func (b *RV32Builder) Bltu(rs1, rs2 int, label string) *RV32Builder {
	return b.branch(6, rs1, rs2, label)
}
func (b *RV32Builder) Bgeu(rs1, rs2 int, label string) *RV32Builder {
	return b.branch(7, rs1, rs2, label)
}

// Jal writes the return address to rd and jumps to label (rd=0 is a
// plain jump).
func (b *RV32Builder) Jal(rd int, label string) *RV32Builder {
	b.fixups[len(b.words)] = rv32Fixup{label: label, kind: rv32FixJ}
	return b.word(rv32EncJ(0, b.reg(rd, "rd")))
}

// Jalr jumps to rs1+imm with the return address in rd (ret is
// Jalr(0, 1, 0)).
func (b *RV32Builder) Jalr(rd, rs1 int, imm int32) *RV32Builder {
	return b.word(rv32EncI(b.checkImm12(imm, "jalr")&0xfff, b.reg(rs1, "rs1"), 0, b.reg(rd, "rd"), 0x67))
}

// Ebreak halts the guest.
func (b *RV32Builder) Ebreak() *RV32Builder { return b.word(0x0010_0073) }

// InstCount returns the number of instructions emitted so far (useful
// for generating unique local labels).
func (b *RV32Builder) InstCount() int { return len(b.words) }

// AddrOf returns the guest address of a defined label. Encodings are
// fixed-width, so addresses are exact as soon as the label is placed —
// no layout pass is needed (unlike the x86 Builder's AddrOf, which is
// only valid after Build).
func (b *RV32Builder) AddrOf(label string) (uint32, bool) {
	idx, ok := b.labels[label]
	if !ok {
		return 0, false
	}
	return mem.GuestCodeBase + uint32(idx*rv32InstBytes), true
}

// Build resolves labels and returns the program image.
func (b *RV32Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	addrOf := func(idx int) uint32 { return uint32(idx * rv32InstBytes) }
	for idx, fix := range b.fixups {
		target, ok := b.labels[fix.label]
		if !ok {
			return nil, fmt.Errorf("guest: rv32 builder: undefined label %q", fix.label)
		}
		switch fix.kind {
		case rv32FixB:
			rel := int32(addrOf(target)) - int32(addrOf(idx))
			if rel < -4096 || rel > 4094 {
				return nil, fmt.Errorf("guest: rv32 builder: branch to %q out of range (%d)", fix.label, rel)
			}
			b.words[idx] |= uint32(rv32EncB(rel, 0, 0, 0))
		case rv32FixJ:
			rel := int32(addrOf(target)) - int32(addrOf(idx))
			if rel < -(1<<20) || rel >= 1<<20 {
				return nil, fmt.Errorf("guest: rv32 builder: jal to %q out of range (%d)", fix.label, rel)
			}
			b.words[idx] |= rv32EncJ(rel, 0)
		}
	}
	code := make([]byte, len(b.words)*rv32InstBytes)
	for i, w := range b.words {
		code[i*4+0] = byte(w)
		code[i*4+1] = byte(w >> 8)
		code[i*4+2] = byte(w >> 16)
		code[i*4+3] = byte(w >> 24)
	}
	return &Program{
		Entry:      mem.GuestCodeBase,
		Code:       code,
		Data:       b.data,
		StaticInst: len(b.words),
		ISA:        "rv32",
	}, nil
}
