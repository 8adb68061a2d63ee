// Package guest defines the guest-visible side of the co-designed
// processor: a shared decoded instruction form (Inst) that every guest
// frontend lowers into, the canonical architectural semantics over that
// form (Step), and the pluggable ISA registry (see isaspec.go) through
// which frontends supply decoding, encoding metadata and register-file
// descriptions.
//
// Two frontends are in-tree. The original x86-like CISC ISA (this
// file plus encode.go) has eight general-purpose registers, a
// condition-flags register with x86 bit positions, a small
// floating-point register file, variable-length encodings, and both
// direct and indirect control flow. The RV32I frontend (rv32.go) has
// sixteen integer registers with a hardwired-zero x0, fixed four-byte
// encodings, and no flags register — conditional control flow is
// compare-and-branch, decoded into the RISC-family opcodes below.
//
// The canonical semantics are used both by the authoritative
// functional emulator (the reference component of the simulation
// infrastructure) and as the reference against which translations are
// verified by co-simulation.
package guest

import "fmt"

// Reg is a guest general-purpose register.
type Reg uint8

// Guest general-purpose registers, named after their x86 counterparts.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	NumRegs = 8
)

// MaxGuestRegs is the widest integer register file any registered
// frontend exposes (RV32I's sixteen; x86 uses the first eight). State
// and the optimizer's per-register tables are sized by it.
const MaxGuestRegs = 16

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// FReg is a guest floating-point register (F0..F7).
type FReg uint8

// NumFRegs is the number of guest floating-point registers.
const NumFRegs = 8

func (f FReg) String() string { return fmt.Sprintf("f%d", uint8(f)) }

// Condition-flag bit positions follow the x86 EFLAGS layout.
const (
	FlagCF uint32 = 1 << 0  // carry
	flagPF uint32 = 1 << 2  // parity (of low result byte)
	FlagZF uint32 = 1 << 6  // zero
	FlagSF uint32 = 1 << 7  // sign
	flagOF uint32 = 1 << 11 // signed overflow
)

// FlagsMask selects the architecturally observable flag bits. PF is
// computed by the reference semantics for completeness but no condition
// code reads it, so it is excluded from state comparison and the
// translator does not materialize it (the same shortcut production x86
// translators take, since parity consumers are vanishingly rare).
const FlagsMask = FlagCF | FlagZF | FlagSF | flagOF

// Cond is a branch condition evaluated against the flags register.
type Cond uint8

// Branch conditions, mirroring x86 Jcc semantics.
const (
	CondE  Cond = iota // equal: ZF
	CondNE             // not equal: !ZF
	CondL              // signed less: SF != OF
	CondGE             // signed greater-or-equal: SF == OF
	CondLE             // signed less-or-equal: ZF || SF != OF
	CondG              // signed greater: !ZF && SF == OF
	CondB              // unsigned below: CF
	CondAE             // unsigned above-or-equal: !CF
	CondS              // sign: SF
	CondNS             // not sign: !SF
	NumConds
)

var condNames = [NumConds]string{"e", "ne", "l", "ge", "le", "g", "b", "ae", "s", "ns"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond?%d", uint8(c))
}

// Eval reports whether the condition holds for the given flags value.
func (c Cond) Eval(flags uint32) bool {
	zf := flags&FlagZF != 0
	sf := flags&FlagSF != 0
	of := flags&flagOF != 0
	cf := flags&FlagCF != 0
	switch c {
	case CondE:
		return zf
	case CondNE:
		return !zf
	case CondL:
		return sf != of
	case CondGE:
		return sf == of
	case CondLE:
		return zf || sf != of
	case CondG:
		return !zf && sf == of
	case CondB:
		return cf
	case CondAE:
		return !cf
	case CondS:
		return sf
	case CondNS:
		return !sf
	}
	panic(fmt.Sprintf("guest: invalid condition %d", c))
}

// EvalCmp evaluates the condition directly on two register values, the
// compare-and-branch semantics of OpBcc. Only the six conditions RV32I
// branches map to are defined (beq, bne, blt, bge, bltu, bgeu).
func (c Cond) EvalCmp(a, b uint32) bool {
	switch c {
	case CondE:
		return a == b
	case CondNE:
		return a != b
	case CondL:
		return int32(a) < int32(b)
	case CondGE:
		return int32(a) >= int32(b)
	case CondB:
		return a < b
	case CondAE:
		return a >= b
	}
	panic(fmt.Sprintf("guest: condition %s has no compare-and-branch form", c))
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	// Conditions are laid out in complementary pairs.
	if c&1 == 0 {
		return c + 1
	}
	return c - 1
}

// Op is a guest opcode.
type Op uint8

// Guest opcodes. Encoded sizes vary from 1 to 7 bytes; see encode.go.
const (
	OpNop Op = iota
	OpHalt

	// Data movement.
	OpMovRR // r1 = r2
	OpMovRI // r1 = imm32
	OpLoad  // r1 = mem32[rb+disp]
	OpStore // mem32[rb+disp] = r1
	OpLoadIdx
	OpStoreIdx
	OpLea // r1 = rb+disp (no flags)

	// Integer ALU, register-register. All set flags except noted.
	OpAddRR
	OpSubRR
	OpAndRR
	OpOrRR
	OpXorRR
	OpCmpRR  // flags of r1-r2, result discarded
	OpTestRR // flags of r1&r2, result discarded
	OpImulRR // r1 *= r2 signed; CF=OF=overflow
	OpDivRR  // r1 /= r2 unsigned; flags unchanged

	// Integer ALU, register-immediate.
	OpAddRI
	OpSubRI
	OpAndRI
	OpOrRI
	OpXorRI
	OpCmpRI

	// Single-operand.
	OpIncR // preserves CF
	OpDecR // preserves CF
	OpNegR
	OpNotR // no flags

	// Shifts by immediate (count masked to 5 bits).
	OpShlRI
	OpShrRI
	OpSarRI

	// Stack.
	OpPushR
	OpPopR

	// Control flow.
	OpJmp     // eip += rel32
	OpJcc     // conditional relative
	OpJmpInd  // eip = r1 (register-indirect)
	OpCallRel // push return address; eip += rel32
	OpCallInd // push return address; eip = r1
	OpRet     // eip = pop()

	// Floating point (64-bit IEEE754 in memory).
	OpFLoad  // f1 = mem64[rb+disp]
	OpFStore // mem64[rb+disp] = f1
	OpFMovRR // f1 = f2
	OpFAdd   // f1 += f2
	OpFSub
	OpFMul
	OpFDiv
	OpFCmp  // flags: ZF=(f1==f2), CF=(f1<f2); SF=OF=0 (like x86 FCOMI)
	OpCvtIF // f1 = float64(int32(r2))
	OpCvtFI // r1 = int32(f2), truncated

	// RISC-family opcodes (RV32I frontend). Three-operand, flagless:
	// R1 = destination, R2 = first source, RB = second source (register
	// forms) or Imm (immediate forms). Writes to register 0 are
	// discarded (the hardwired zero). Appended after the x86 opcodes so
	// the x86 encoding's opcode byte values — and every recorded trace —
	// keep their numbering; they have no x86 encoding (see encode.go).
	OpAdd3  // r1 = r2 + rb
	OpSub3  // r1 = r2 - rb
	OpAnd3  // r1 = r2 & rb
	OpOr3   // r1 = r2 | rb
	OpXor3  // r1 = r2 ^ rb
	OpSll3  // r1 = r2 << (rb & 31)
	OpSrl3  // r1 = r2 >> (rb & 31), logical
	OpSra3  // r1 = r2 >> (rb & 31), arithmetic
	OpSlt3  // r1 = int32(r2) < int32(rb)
	OpSltu3 // r1 = r2 < rb, unsigned

	OpAddI3  // r1 = r2 + imm
	OpAndI3  // r1 = r2 & imm
	OpOrI3   // r1 = r2 | imm
	OpXorI3  // r1 = r2 ^ imm
	OpSllI3  // r1 = r2 << (imm & 31)
	OpSrlI3  // r1 = r2 >> (imm & 31), logical
	OpSraI3  // r1 = r2 >> (imm & 31), arithmetic
	OpSltI3  // r1 = int32(r2) < int32(imm)
	OpSltuI3 // r1 = r2 < uint32(imm), unsigned

	OpBcc  // compare-and-branch: if cond(r1, r2) then eip += rel (flagless)
	OpJal  // r1 = return address; eip += rel
	OpJalr // r1 = return address; eip = (r2 + imm) &^ 1

	NumOps
)

var opNames = [NumOps]string{
	"nop", "halt",
	"mov", "movi", "load", "store", "loadx", "storex", "lea",
	"add", "sub", "and", "or", "xor", "cmp", "test", "imul", "div",
	"addi", "subi", "andi", "ori", "xori", "cmpi",
	"inc", "dec", "neg", "not",
	"shl", "shr", "sar",
	"push", "pop",
	"jmp", "jcc", "jmpind", "call", "callind", "ret",
	"fload", "fstore", "fmov", "fadd", "fsub", "fmul", "fdiv", "fcmp", "cvtif", "cvtfi",
	"add3", "sub3", "and3", "or3", "xor3", "sll3", "srl3", "sra3", "slt3", "sltu3",
	"addi3", "andi3", "ori3", "xori3", "slli3", "srli3", "srai3", "slti3", "sltui3",
	"bcc", "jal", "jalr",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Inst is a decoded guest instruction.
type Inst struct {
	Op    Op
	R1    Reg   // destination / first operand register
	R2    Reg   // source register
	RB    Reg   // base register for memory operands
	RI    Reg   // index register for scaled addressing
	F1    FReg  // FP destination / first operand
	F2    FReg  // FP source
	Cond  Cond  // for OpJcc
	Scale uint8 // 1, 2, 4 or 8 for indexed addressing
	Imm   int32 // immediate, displacement, or branch offset
	Size  uint8 // encoded length in bytes
}

// IsBranch reports whether the instruction redirects control flow.
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case OpJmp, OpJcc, OpJmpInd, OpCallRel, OpCallInd, OpRet,
		OpBcc, OpJal, OpJalr:
		return true
	}
	return false
}

// IsIndirectBranch reports whether the branch target is computed at
// execution time (register-indirect jumps, indirect calls, returns).
func (i *Inst) IsIndirectBranch() bool {
	switch i.Op {
	case OpJmpInd, OpCallInd, OpRet, OpJalr:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch
// — flags-based (OpJcc) or compare-and-branch (OpBcc).
func (i *Inst) IsCondBranch() bool { return i.Op == OpJcc || i.Op == OpBcc }

// EndsBlock reports whether the instruction terminates a basic block.
func (i *Inst) EndsBlock() bool { return i.IsBranch() || i.Op == OpHalt }

// WritesFlags reports whether execution updates the flags register.
func (i *Inst) WritesFlags() bool {
	switch i.Op {
	case OpAddRR, OpSubRR, OpAndRR, OpOrRR, OpXorRR, OpCmpRR, OpTestRR,
		OpImulRR, OpAddRI, OpSubRI, OpAndRI, OpOrRI, OpXorRI, OpCmpRI,
		OpIncR, OpDecR, OpNegR, OpShlRI, OpShrRI, OpSarRI, OpFCmp:
		return true
	}
	return false
}

// ReadsFlags reports whether the instruction consumes the flags register.
// OpIncR/OpDecR preserve CF, which counts as a read-modify-write.
func (i *Inst) ReadsFlags() bool {
	switch i.Op {
	case OpJcc, OpIncR, OpDecR:
		return true
	}
	return false
}

// IsMemAccess reports whether the instruction accesses data memory.
func (i *Inst) IsMemAccess() bool {
	switch i.Op {
	case OpLoad, OpStore, OpLoadIdx, OpStoreIdx, OpPushR, OpPopR,
		OpCallRel, OpCallInd, OpRet, OpFLoad, OpFStore:
		return true
	}
	return false
}

// IsFP reports whether the instruction uses the FP register file.
func (i *Inst) IsFP() bool {
	switch i.Op {
	case OpFLoad, OpFStore, OpFMovRR, OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpFCmp, OpCvtIF, OpCvtFI:
		return true
	}
	return false
}

func (i *Inst) String() string {
	switch i.Op {
	case OpNop, OpHalt, OpRet:
		return i.Op.String()
	case OpMovRR:
		return fmt.Sprintf("mov %s, %s", i.R1, i.R2)
	case OpMovRI:
		return fmt.Sprintf("mov %s, %d", i.R1, i.Imm)
	case OpLoad:
		return fmt.Sprintf("load %s, [%s%+d]", i.R1, i.RB, i.Imm)
	case OpStore:
		return fmt.Sprintf("store [%s%+d], %s", i.RB, i.Imm, i.R1)
	case OpLoadIdx:
		return fmt.Sprintf("load %s, [%s+%s*%d%+d]", i.R1, i.RB, i.RI, i.Scale, i.Imm)
	case OpStoreIdx:
		return fmt.Sprintf("store [%s+%s*%d%+d], %s", i.RB, i.RI, i.Scale, i.Imm, i.R1)
	case OpLea:
		return fmt.Sprintf("lea %s, [%s%+d]", i.R1, i.RB, i.Imm)
	case OpAddRR, OpSubRR, OpAndRR, OpOrRR, OpXorRR, OpCmpRR, OpTestRR, OpImulRR, OpDivRR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.R1, i.R2)
	case OpAddRI, OpSubRI, OpAndRI, OpOrRI, OpXorRI, OpCmpRI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.R1, i.Imm)
	case OpIncR, OpDecR, OpNegR, OpNotR, OpPushR, OpPopR:
		return fmt.Sprintf("%s %s", i.Op, i.R1)
	case OpShlRI, OpShrRI, OpSarRI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.R1, i.Imm)
	case OpJmp, OpCallRel:
		return fmt.Sprintf("%s %+d", i.Op, i.Imm)
	case OpJcc:
		return fmt.Sprintf("j%s %+d", i.Cond, i.Imm)
	case OpJmpInd, OpCallInd:
		return fmt.Sprintf("%s %s", i.Op, i.R1)
	case OpFLoad:
		return fmt.Sprintf("fload %s, [%s%+d]", i.F1, i.RB, i.Imm)
	case OpFStore:
		return fmt.Sprintf("fstore [%s%+d], %s", i.RB, i.Imm, i.F1)
	case OpFMovRR, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmp:
		return fmt.Sprintf("%s %s, %s", i.Op, i.F1, i.F2)
	case OpCvtIF:
		return fmt.Sprintf("cvtif %s, %s", i.F1, i.R2)
	case OpCvtFI:
		return fmt.Sprintf("cvtfi %s, %s", i.R1, i.F2)
	case OpAdd3, OpSub3, OpAnd3, OpOr3, OpXor3, OpSll3, OpSrl3, OpSra3, OpSlt3, OpSltu3:
		return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.R1, i.R2, i.RB)
	case OpAddI3, OpAndI3, OpOrI3, OpXorI3, OpSllI3, OpSrlI3, OpSraI3, OpSltI3, OpSltuI3:
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.R1, i.R2, i.Imm)
	case OpBcc:
		return fmt.Sprintf("b%s x%d, x%d, %+d", i.Cond, i.R1, i.R2, i.Imm)
	case OpJal:
		return fmt.Sprintf("jal x%d, %+d", i.R1, i.Imm)
	case OpJalr:
		return fmt.Sprintf("jalr x%d, x%d, %d", i.R1, i.R2, i.Imm)
	}
	return i.Op.String()
}
