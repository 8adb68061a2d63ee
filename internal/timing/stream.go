package timing

import "repro/internal/host"

// Owner identifies which entity a dynamic instruction belongs to. The
// timing simulator is able to distinguish the instructions corresponding
// to the emulation of the guest application from those corresponding to
// TOL — the DARCO feature enabling the paper's interaction study.
type Owner uint8

// Owners.
const (
	OwnerApp Owner = iota
	OwnerTOL
	NumOwners
)

func (o Owner) String() string {
	if o == OwnerApp {
		return "app"
	}
	return "tol"
}

// Component attributes TOL instructions to the TOL module that executed
// them, matching the execution-time breakdown of the paper's Figure 7.
type Component uint8

// Components. CompApp tags application (translated guest) instructions.
const (
	CompApp             Component = iota
	CompIM                        // interpreting
	CompBBM                       // forming and translating basic blocks
	CompSBM                       // forming and optimizing superblocks
	CompChaining                  // connecting BBs/SBs together
	CompCodeCacheLookup           // searching for a translation in the code cache
	CompTOLOther                  // initialization, entry/exit glue, dispatch loop
	NumComponents
)

var componentNames = [NumComponents]string{
	"app", "im", "bbm", "sbm", "chaining", "codecache-lookup", "tol-other",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "comp?"
}

// RegNone marks an absent register operand in a DynInst.
const RegNone = 0xff

// fpRegBase offsets FP register ids into the unified scoreboard
// namespace (0..63 integer, 64..95 FP).
const fpRegBase = 64

// DynInst is one dynamic host instruction as seen by the timing
// simulator: program counter, execution class, register operands for
// scoreboard dependencies, memory and control-flow side effects, and
// the owner/component attribution.
type DynInst struct {
	PC    uint32
	Class host.ExecClass
	Owner Owner
	Comp  Component

	// Scoreboard operands in the unified register namespace; RegNone
	// when absent.
	Dst  uint8
	Src1 uint8
	Src2 uint8

	IsLoad     bool
	IsStore    bool
	MemAddr    uint32
	IsBranch   bool
	IsCond     bool
	IsIndirect bool
	Taken      bool
	Target     uint32
}

// BatchSource produces the dynamic instruction stream consumed by the
// simulator: NextBatch fills a prefix of buf and returns how many
// instructions it wrote (0 = stream end). The simulator pulls
// Config.StreamBatch instructions at a time, so a source pays one call
// and one memory copy per batch instead of an interface call per
// instruction. The batch size must not change the delivered sequence —
// batching is transport, not semantics — which the stream-equality
// tests pin.
type BatchSource interface {
	NextBatch(buf []DynInst) int
}

// SliceSource adapts a materialized trace to BatchSource, mainly for
// tests and microbenchmarks.
type SliceSource struct {
	Insts []DynInst
	pos   int
}

// Next delivers one instruction: the item-wise reference the
// stream-equality tests compare batched delivery against.
func (s *SliceSource) Next(d *DynInst) bool {
	if s.pos >= len(s.Insts) {
		return false
	}
	*d = s.Insts[s.pos]
	s.pos++
	return true
}

// NextBatch implements BatchSource.
func (s *SliceSource) NextBatch(buf []DynInst) int {
	n := copy(buf, s.Insts[s.pos:])
	s.pos += n
	return n
}

// TemplateFromHost fills the execution-invariant fields of d for a
// decoded host instruction: PC, class, operand registers and the
// static per-opcode load/store/branch flags. The per-execution
// MemAddr/Taken/Target are zeroed for the caller to set from the
// host.Outcome, and Owner/Comp attribution is left to it — so a
// template plus those three fields is the complete DynInst, the basis
// of the code cache's precomputed dispatch metadata.
func TemplateFromHost(d *DynInst, pc uint32, hi *host.Inst) {
	d.PC = pc
	d.Class = hi.Class()
	d.Dst, d.Src1, d.Src2 = operandRegs(hi)
	d.IsLoad = hi.IsLoad()
	d.IsStore = hi.IsStore()
	d.MemAddr = 0
	d.IsBranch = hi.IsBranch()
	d.IsCond = hi.IsCondBranch()
	d.IsIndirect = hi.IsIndirect()
	d.Taken = false
	d.Target = 0
}

// intReg and fpReg map host registers into the unified scoreboard
// namespace. The integer register r0 is hardwired zero and is reported
// as RegNone so it never creates dependencies.
func intReg(r host.Reg) uint8 {
	if r == host.RZero {
		return RegNone
	}
	return uint8(r)
}

func fpReg(r host.Reg) uint8 { return fpRegBase + uint8(r) }

// operandRegs maps a host instruction to its scoreboard operands in the
// unified namespace.
func operandRegs(hi *host.Inst) (dst, src1, src2 uint8) {
	dst, src1, src2 = RegNone, RegNone, RegNone

	switch hi.Op {
	case host.Nop, host.Halt:
	case host.Lui:
		dst = intReg(hi.Rd)
	case host.Ori, host.Addi, host.Andi, host.Xori, host.Slli, host.Srli,
		host.Srai, host.Slti, host.Sltiu:
		dst, src1 = intReg(hi.Rd), intReg(hi.Rs1)
	case host.Add, host.Sub, host.And, host.Or, host.Xor, host.Sll,
		host.Srl, host.Sra, host.Mul, host.Div, host.Slt, host.Sltu:
		dst, src1, src2 = intReg(hi.Rd), intReg(hi.Rs1), intReg(hi.Rs2)
	case host.Ld:
		dst, src1 = intReg(hi.Rd), intReg(hi.Rs1)
	case host.St:
		src1, src2 = intReg(hi.Rs1), intReg(hi.Rs2)
	case host.Beq, host.Bne, host.Blt, host.Bge, host.Bltu, host.Bgeu:
		src1, src2 = intReg(hi.Rs1), intReg(hi.Rs2)
	case host.Jal:
		dst = intReg(hi.Rd)
	case host.Jalr:
		dst, src1 = intReg(hi.Rd), intReg(hi.Rs1)
	case host.FAdd, host.FSub, host.FMul, host.FDiv, host.FEq, host.FLt:
		// FEq/FLt write an integer register from two FP sources.
		if hi.Op == host.FEq || hi.Op == host.FLt {
			dst = intReg(hi.Rd)
		} else {
			dst = fpReg(hi.Rd)
		}
		src1, src2 = fpReg(hi.Rs1), fpReg(hi.Rs2)
	case host.FMov:
		dst, src1 = fpReg(hi.Rd), fpReg(hi.Rs1)
	case host.FLd:
		dst, src1 = fpReg(hi.Rd), intReg(hi.Rs1)
	case host.FSt:
		src1, src2 = intReg(hi.Rs1), fpReg(hi.Rs2)
	case host.FCvtIF:
		dst, src1 = fpReg(hi.Rd), intReg(hi.Rs1)
	case host.FCvtFI:
		dst, src1 = intReg(hi.Rd), fpReg(hi.Rs1)
	}
	return dst, src1, src2
}

// NumSBRegs is the size of the unified scoreboard register namespace.
const NumSBRegs = 96
