// Package host defines the host ISA of the co-designed processor: a
// simple RISC with 64 integer registers and 32 floating-point
// registers, load/store architecture, and compare-and-branch control
// flow. Following the paper, the integer register file is logically
// divided between TOL (r1–r31) and the translated application code
// (r32–r63) to reduce transition overheads.
//
// Each instruction architecturally occupies 4 bytes of the host address
// space (InstBytes); the bit-level binary encoding of the modeled host
// was never published, so code is stored as decoded instructions, and a
// canonical 8-byte serialization (encode.go) exists for storage and
// round-trip testing.
package host

import "fmt"

// InstBytes is the architectural size of one host instruction. Host PCs
// advance by InstBytes; instruction-cache behaviour is modeled on these
// addresses.
const InstBytes = 4

// Reg is a host integer register, 0..63. R0 is hardwired to zero.
type Reg uint8

// NumRegs is the size of the host integer register file.
const NumRegs = 64

// NumFRegs is the size of the host FP register file.
const NumFRegs = 32

// Register-convention assignments. The split mirrors the paper: 32
// registers are only accessible by TOL and 32 only by the translated
// application code.
const (
	RZero Reg = 0 // hardwired zero

	// TOL-owned registers (r1..r31). T-series names are scratch used by
	// TOL cost streams and runtime glue.
	rt0  Reg = 1
	rtLR Reg = 31 // TOL link register

	// Application-owned registers (r32..r63).
	rGuestRegBase Reg = 32 // r32..r39 hold guest EAX..EDI
	RFlags        Reg = 40 // guest EFLAGS image
	RMemBase      Reg = 41 // guest memory window base (constant)
	RAppS0        Reg = 42 // translated-code scratch
	RAppS1        Reg = 43 // translated-code scratch
	rAllocBase    Reg = 44 // first register available to the SBM allocator
	RAllocEnd     Reg = 63 // last register available to the SBM allocator
)

// FReg is a host floating-point register, 0..31.
type FReg uint8

// FP register convention: f0..f15 are TOL-owned, f16..f23 hold guest
// F0..F7, f24..f31 are translated-code scratch.
const fGuestBase FReg = 16

// GuestReg returns the host register holding guest GPR g.
func GuestReg(g uint8) Reg { return rGuestRegBase + Reg(g) }

// GuestFReg returns the host FP register holding guest FP register g.
func GuestFReg(g uint8) FReg { return fGuestBase + FReg(g) }

// Op is a host opcode.
type Op uint8

// Host opcodes.
const (
	Nop Op = iota
	Halt

	// Constant construction.
	Lui // rd = imm << 16
	Ori // rd = rs1 | uimm16 (also the low half of LI expansions)

	// ALU register-register.
	Add
	Sub
	And
	Or
	Xor
	Sll
	Srl
	Sra
	Mul // complex integer (2-cycle)
	Div // complex integer (2-cycle); division by zero yields all-ones
	Slt
	Sltu

	// ALU register-immediate (imm is sign-extended except logical ops).
	Addi
	Andi
	Xori
	Slli
	Srli
	Srai
	Slti
	Sltiu

	// Memory (32-bit words; FLd/FSt move 64-bit doubles).
	Ld // rd = mem32[rs1+imm]
	St // mem32[rs1+imm] = rs2

	// Control flow. Branch offsets are byte offsets relative to the
	// address of the next instruction.
	Beq
	Bne
	Blt
	Bge
	Bltu
	Bgeu
	Jal  // rd = return address; pc += imm
	Jalr // rd = return address; pc = rs1 + imm

	// Floating point.
	FAdd // simple FP (2-cycle)
	FSub
	FMov
	FMul // complex FP (5-cycle)
	FDiv
	FLd    // fd = mem64[rs1+imm]
	FSt    // mem64[rs1+imm] = fs2
	FEq    // rd = (fs1 == fs2)
	FLt    // rd = (fs1 < fs2)
	FCvtIF // fd = float64(int32(rs1))
	FCvtFI // rd = int32(fs1)

	NumOps
)

var opNames = [NumOps]string{
	"nop", "halt", "lui", "ori",
	"add", "sub", "and", "or", "xor", "sll", "srl", "sra", "mul", "div", "slt", "sltu",
	"addi", "andi", "xori", "slli", "srli", "srai", "slti", "sltiu",
	"ld", "st",
	"beq", "bne", "blt", "bge", "bltu", "bgeu", "jal", "jalr",
	"fadd", "fsub", "fmov", "fmul", "fdiv", "fld", "fst", "feq", "flt", "fcvtif", "fcvtfi",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("hop?%d", uint8(o))
}

// Inst is a decoded host instruction. For FP operations the register
// fields index the FP register file (Fd/Fs aliases below make call
// sites readable).
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// IsBranch reports whether the instruction may redirect control flow.
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i *Inst) IsCondBranch() bool {
	switch i.Op {
	case Beq, Bne, Blt, Bge, Bltu, Bgeu:
		return true
	}
	return false
}

// IsIndirect reports whether the branch target comes from a register.
func (i *Inst) IsIndirect() bool { return i.Op == Jalr }

// IsLoad reports whether the instruction reads data memory.
func (i *Inst) IsLoad() bool { return i.Op == Ld || i.Op == FLd }

// IsStore reports whether the instruction writes data memory.
func (i *Inst) IsStore() bool { return i.Op == St || i.Op == FSt }

// IsMemAccess reports whether the instruction touches data memory.
func (i *Inst) IsMemAccess() bool { return i.IsLoad() || i.IsStore() }

// IsFP reports whether the instruction executes on an FP unit.
func (i *Inst) IsFP() bool {
	switch i.Op {
	case FAdd, FSub, FMov, FMul, FDiv, FEq, FLt, FCvtIF, FCvtFI, FLd, FSt:
		return true
	}
	return false
}

// ExecClass categorizes instructions by execution-unit latency class.
type ExecClass uint8

// Execution classes per Table I: each pipe has one simple (1-cycle) and
// one complex (2-cycle) integer unit, and one simple (2-cycle) and one
// complex (5-cycle) FP unit.
const (
	ClassSimpleInt  ExecClass = iota // 1 cycle
	ClassComplexInt                  // 2 cycles
	ClassSimpleFP                    // 2 cycles
	ClassComplexFP                   // 5 cycles
	ClassMem                         // address calc in EXE + cache access
)

// Class returns the execution class of the instruction.
func (i *Inst) Class() ExecClass {
	switch i.Op {
	case Mul, Div:
		return ClassComplexInt
	case FMul, FDiv:
		return ClassComplexFP
	case FAdd, FSub, FMov, FEq, FLt, FCvtIF, FCvtFI:
		return ClassSimpleFP
	case Ld, St, FLd, FSt:
		return ClassMem
	default:
		return ClassSimpleInt
	}
}

// Latency returns the execution latency in cycles for non-memory
// instructions (memory latency is determined by the cache hierarchy).
func (c ExecClass) Latency() int {
	switch c {
	case ClassSimpleInt:
		return 1
	case ClassComplexInt:
		return 2
	case ClassSimpleFP:
		return 2
	case ClassComplexFP:
		return 5
	}
	return 1
}

func (i *Inst) String() string {
	switch i.Op {
	case Nop, Halt:
		return i.Op.String()
	case Lui:
		return fmt.Sprintf("lui r%d, %#x", i.Rd, uint32(i.Imm))
	case Ori, Addi, Andi, Xori, Slli, Srli, Srai, Slti, Sltiu:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case Add, Sub, And, Or, Xor, Sll, Srl, Sra, Mul, Div, Slt, Sltu:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case Ld:
		return fmt.Sprintf("ld r%d, %d(r%d)", i.Rd, i.Imm, i.Rs1)
	case St:
		return fmt.Sprintf("st r%d, %d(r%d)", i.Rs2, i.Imm, i.Rs1)
	case Beq, Bne, Blt, Bge, Bltu, Bgeu:
		return fmt.Sprintf("%s r%d, r%d, %+d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case Jal:
		return fmt.Sprintf("jal r%d, %+d", i.Rd, i.Imm)
	case Jalr:
		return fmt.Sprintf("jalr r%d, r%d, %d", i.Rd, i.Rs1, i.Imm)
	case FAdd, FSub, FMov, FMul, FDiv, FEq, FLt:
		return fmt.Sprintf("%s f%d, f%d, f%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case FLd:
		return fmt.Sprintf("fld f%d, %d(r%d)", i.Rd, i.Imm, i.Rs1)
	case FSt:
		return fmt.Sprintf("fst f%d, %d(r%d)", i.Rs2, i.Imm, i.Rs1)
	case FCvtIF:
		return fmt.Sprintf("fcvtif f%d, r%d", i.Rd, i.Rs1)
	case FCvtFI:
		return fmt.Sprintf("fcvtfi r%d, f%d", i.Rd, i.Rs1)
	}
	return i.Op.String()
}
