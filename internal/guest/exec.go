package guest

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// State is the guest architectural state: the integer register file
// (sized for the widest registered frontend; x86 uses the first eight,
// RV32I all sixteen), eight FP registers, the instruction pointer and
// the condition-flags register (always zero for flagless frontends).
type State struct {
	Regs  [MaxGuestRegs]uint32
	FRegs [NumFRegs]float64
	EIP   uint32
	Flags uint32
}

// Equal reports whether two states are architecturally identical.
func (s *State) Equal(o *State) bool {
	if s.EIP != o.EIP || s.Flags&FlagsMask != o.Flags&FlagsMask {
		return false
	}
	if s.Regs != o.Regs {
		return false
	}
	for i := range s.FRegs {
		a, b := s.FRegs[i], o.FRegs[i]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first difference
// between two states, or "" when equal. Used by the co-simulation state
// checker to produce actionable divergence reports.
func (s *State) Diff(o *State) string {
	if s.EIP != o.EIP {
		return fmt.Sprintf("eip: %#x vs %#x", s.EIP, o.EIP)
	}
	for i := range s.Regs {
		if s.Regs[i] != o.Regs[i] {
			return fmt.Sprintf("%s: %#x vs %#x", Reg(i), s.Regs[i], o.Regs[i])
		}
	}
	if s.Flags&FlagsMask != o.Flags&FlagsMask {
		return fmt.Sprintf("flags: %#x vs %#x", s.Flags&FlagsMask, o.Flags&FlagsMask)
	}
	for i := range s.FRegs {
		a, b := s.FRegs[i], o.FRegs[i]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return fmt.Sprintf("f%d: %v vs %v", i, a, b)
		}
	}
	return ""
}

// StepResult describes the outcome of executing one guest instruction.
type StepResult struct {
	Inst    Inst
	Halted  bool
	MemAddr uint32 // effective address of a data access, if any
	IsLoad  bool
	IsStore bool
	Taken   bool   // for branches: whether control transferred
	Target  uint32 // for taken branches: the new EIP
}

// Step executes one instruction at s.EIP against memory m, updating the
// state in place. This function is the canonical guest semantics; the
// authoritative emulator uses it directly, and translated code is
// verified against it by co-simulation.
//
// Division by zero yields an all-ones quotient rather than a fault: the
// modeled system skips exception handling (as the paper's infrastructure
// does for non user-level events), so semantics are defined totally.
//
// Hot per-instruction loops should prefer DecodeCache.Step, which
// executes the same semantics but skips re-fetching and re-decoding
// instruction bytes already seen.
func Step(s *State, m mem.Memory, res *StepResult) error {
	inst, err := fetchDecode(s.EIP, m)
	if err != nil {
		return err
	}
	return stepDecoded(s, m, &inst, res)
}

// fetchDecode reads and decodes the instruction at eip — the shared
// front half of Step and DecodeCache.Step.
func fetchDecode(eip uint32, m mem.Memory) (Inst, error) {
	var buf [MaxInstSize]byte
	for i := range buf {
		buf[i] = m.Read8(eip + uint32(i))
	}
	inst, err := decode(buf[:])
	if err != nil {
		return inst, fmt.Errorf("at eip=%#x: %w", eip, err)
	}
	return inst, nil
}

// stepDecoded executes one already-decoded instruction at s.EIP. It is
// the shared back half of Step and DecodeCache.Step: everything after
// fetch+decode, so cached and uncached execution are one code path.
func stepDecoded(s *State, m mem.Memory, instp *Inst, res *StepResult) error {
	inst := *instp
	*res = StepResult{Inst: inst}
	next := s.EIP + uint32(inst.Size)

	switch inst.Op {
	case OpNop:
	case OpHalt:
		res.Halted = true
		return nil // EIP stays at the halt instruction

	case OpMovRR:
		s.Regs[inst.R1] = s.Regs[inst.R2]
	case OpMovRI:
		s.Regs[inst.R1] = uint32(inst.Imm)
	case OpLea:
		s.Regs[inst.R1] = s.Regs[inst.RB] + uint32(inst.Imm)

	case OpLoad:
		addr := s.Regs[inst.RB] + uint32(inst.Imm)
		s.Regs[inst.R1] = m.Read32(addr)
		res.MemAddr, res.IsLoad = addr, true
	case OpStore:
		addr := s.Regs[inst.RB] + uint32(inst.Imm)
		m.Write32(addr, s.Regs[inst.R1])
		res.MemAddr, res.IsStore = addr, true
	case OpLoadIdx:
		addr := s.Regs[inst.RB] + s.Regs[inst.RI]*uint32(inst.Scale) + uint32(inst.Imm)
		s.Regs[inst.R1] = m.Read32(addr)
		res.MemAddr, res.IsLoad = addr, true
	case OpStoreIdx:
		addr := s.Regs[inst.RB] + s.Regs[inst.RI]*uint32(inst.Scale) + uint32(inst.Imm)
		m.Write32(addr, s.Regs[inst.R1])
		res.MemAddr, res.IsStore = addr, true

	case OpAddRR, OpAddRI:
		a := s.Regs[inst.R1]
		b := aluSrc(s, &inst)
		r := a + b
		s.Regs[inst.R1] = r
		s.Flags = addFlags(a, b, r)
	case OpSubRR, OpSubRI:
		a := s.Regs[inst.R1]
		b := aluSrc(s, &inst)
		r := a - b
		s.Regs[inst.R1] = r
		s.Flags = subFlags(a, b, r)
	case OpCmpRR, OpCmpRI:
		a := s.Regs[inst.R1]
		b := aluSrc(s, &inst)
		s.Flags = subFlags(a, b, a-b)
	case OpAndRR, OpAndRI:
		r := s.Regs[inst.R1] & aluSrc(s, &inst)
		s.Regs[inst.R1] = r
		s.Flags = logicFlags(r)
	case OpOrRR, OpOrRI:
		r := s.Regs[inst.R1] | aluSrc(s, &inst)
		s.Regs[inst.R1] = r
		s.Flags = logicFlags(r)
	case OpXorRR, OpXorRI:
		r := s.Regs[inst.R1] ^ aluSrc(s, &inst)
		s.Regs[inst.R1] = r
		s.Flags = logicFlags(r)
	case OpTestRR:
		s.Flags = logicFlags(s.Regs[inst.R1] & s.Regs[inst.R2])
	case OpImulRR:
		a, b := int32(s.Regs[inst.R1]), int32(s.Regs[inst.R2])
		s.Regs[inst.R1] = uint32(a * b)
		s.Flags = mulFlags(a, b)
	case OpDivRR:
		d := s.Regs[inst.R2]
		if d == 0 {
			s.Regs[inst.R1] = 0xffff_ffff
		} else {
			s.Regs[inst.R1] /= d
		}
		// Flags unchanged (defined, unlike x86's "undefined").

	case OpIncR:
		r := s.Regs[inst.R1] + 1
		s.Regs[inst.R1] = r
		s.Flags = incFlags(s.Flags, r)
	case OpDecR:
		r := s.Regs[inst.R1] - 1
		s.Regs[inst.R1] = r
		s.Flags = decFlags(s.Flags, r)
	case OpNegR:
		a := s.Regs[inst.R1]
		r := -a
		s.Regs[inst.R1] = r
		s.Flags = negFlags(a, r)
	case OpNotR:
		s.Regs[inst.R1] = ^s.Regs[inst.R1]

	case OpShlRI:
		c := uint32(inst.Imm) & 31
		if c != 0 {
			a := s.Regs[inst.R1]
			r := a << c
			s.Regs[inst.R1] = r
			s.Flags = shlFlags(a, c, r)
		}
	case OpShrRI:
		c := uint32(inst.Imm) & 31
		if c != 0 {
			a := s.Regs[inst.R1]
			r := a >> c
			s.Regs[inst.R1] = r
			s.Flags = shrFlags(a, c, r)
		}
	case OpSarRI:
		c := uint32(inst.Imm) & 31
		if c != 0 {
			a := s.Regs[inst.R1]
			r := uint32(int32(a) >> c)
			s.Regs[inst.R1] = r
			s.Flags = shrFlags(a, c, r)
		}

	case OpPushR:
		s.Regs[ESP] -= 4
		m.Write32(s.Regs[ESP], s.Regs[inst.R1])
		res.MemAddr, res.IsStore = s.Regs[ESP], true
	case OpPopR:
		res.MemAddr, res.IsLoad = s.Regs[ESP], true
		s.Regs[inst.R1] = m.Read32(s.Regs[ESP])
		s.Regs[ESP] += 4

	case OpJmp:
		next = next + uint32(inst.Imm)
		res.Taken = true
	case OpJcc:
		if inst.Cond.Eval(s.Flags) {
			next = next + uint32(inst.Imm)
			res.Taken = true
		}
	case OpJmpInd:
		next = s.Regs[inst.R1]
		res.Taken = true
	case OpCallRel:
		s.Regs[ESP] -= 4
		m.Write32(s.Regs[ESP], next)
		res.MemAddr, res.IsStore = s.Regs[ESP], true
		next = next + uint32(inst.Imm)
		res.Taken = true
	case OpCallInd:
		target := s.Regs[inst.R1]
		s.Regs[ESP] -= 4
		m.Write32(s.Regs[ESP], next)
		res.MemAddr, res.IsStore = s.Regs[ESP], true
		next = target
		res.Taken = true
	case OpRet:
		res.MemAddr, res.IsLoad = s.Regs[ESP], true
		next = m.Read32(s.Regs[ESP])
		s.Regs[ESP] += 4
		res.Taken = true

	case OpFLoad:
		addr := s.Regs[inst.RB] + uint32(inst.Imm)
		s.FRegs[inst.F1] = math.Float64frombits(m.Read64(addr))
		res.MemAddr, res.IsLoad = addr, true
	case OpFStore:
		addr := s.Regs[inst.RB] + uint32(inst.Imm)
		m.Write64(addr, math.Float64bits(s.FRegs[inst.F1]))
		res.MemAddr, res.IsStore = addr, true
	case OpFMovRR:
		s.FRegs[inst.F1] = s.FRegs[inst.F2]
	case OpFAdd:
		s.FRegs[inst.F1] += s.FRegs[inst.F2]
	case OpFSub:
		s.FRegs[inst.F1] -= s.FRegs[inst.F2]
	case OpFMul:
		s.FRegs[inst.F1] *= s.FRegs[inst.F2]
	case OpFDiv:
		s.FRegs[inst.F1] /= s.FRegs[inst.F2]
	case OpFCmp:
		s.Flags = fcmpFlags(s.FRegs[inst.F1], s.FRegs[inst.F2])
	case OpCvtIF:
		s.FRegs[inst.F1] = float64(int32(s.Regs[inst.R2]))
	case OpCvtFI:
		s.Regs[inst.R1] = uint32(clampToI32(s.FRegs[inst.F2]))

	case OpAdd3:
		setRISC(s, inst.R1, s.Regs[inst.R2]+s.Regs[inst.RB])
	case OpSub3:
		setRISC(s, inst.R1, s.Regs[inst.R2]-s.Regs[inst.RB])
	case OpAnd3:
		setRISC(s, inst.R1, s.Regs[inst.R2]&s.Regs[inst.RB])
	case OpOr3:
		setRISC(s, inst.R1, s.Regs[inst.R2]|s.Regs[inst.RB])
	case OpXor3:
		setRISC(s, inst.R1, s.Regs[inst.R2]^s.Regs[inst.RB])
	case OpSll3:
		setRISC(s, inst.R1, s.Regs[inst.R2]<<(s.Regs[inst.RB]&31))
	case OpSrl3:
		setRISC(s, inst.R1, s.Regs[inst.R2]>>(s.Regs[inst.RB]&31))
	case OpSra3:
		setRISC(s, inst.R1, uint32(int32(s.Regs[inst.R2])>>(s.Regs[inst.RB]&31)))
	case OpSlt3:
		setRISC(s, inst.R1, b2u(int32(s.Regs[inst.R2]) < int32(s.Regs[inst.RB])))
	case OpSltu3:
		setRISC(s, inst.R1, b2u(s.Regs[inst.R2] < s.Regs[inst.RB]))

	case OpAddI3:
		setRISC(s, inst.R1, s.Regs[inst.R2]+uint32(inst.Imm))
	case OpAndI3:
		setRISC(s, inst.R1, s.Regs[inst.R2]&uint32(inst.Imm))
	case OpOrI3:
		setRISC(s, inst.R1, s.Regs[inst.R2]|uint32(inst.Imm))
	case OpXorI3:
		setRISC(s, inst.R1, s.Regs[inst.R2]^uint32(inst.Imm))
	case OpSllI3:
		setRISC(s, inst.R1, s.Regs[inst.R2]<<(uint32(inst.Imm)&31))
	case OpSrlI3:
		setRISC(s, inst.R1, s.Regs[inst.R2]>>(uint32(inst.Imm)&31))
	case OpSraI3:
		setRISC(s, inst.R1, uint32(int32(s.Regs[inst.R2])>>(uint32(inst.Imm)&31)))
	case OpSltI3:
		setRISC(s, inst.R1, b2u(int32(s.Regs[inst.R2]) < inst.Imm))
	case OpSltuI3:
		setRISC(s, inst.R1, b2u(s.Regs[inst.R2] < uint32(inst.Imm)))

	case OpBcc:
		if inst.Cond.EvalCmp(s.Regs[inst.R1], s.Regs[inst.R2]) {
			next = next + uint32(inst.Imm)
			res.Taken = true
		}
	case OpJal:
		setRISC(s, inst.R1, next)
		next = next + uint32(inst.Imm)
		res.Taken = true
	case OpJalr:
		target := (s.Regs[inst.R2] + uint32(inst.Imm)) &^ 1
		setRISC(s, inst.R1, next)
		next = target
		res.Taken = true

	default:
		return fmt.Errorf("guest: unimplemented opcode %s at eip=%#x", inst.Op, s.EIP)
	}

	if res.Taken {
		res.Target = next
	}
	s.EIP = next
	return nil
}

// clampToI32 truncates a float64 toward zero with x86-style saturation
// to the indefinite value on overflow or NaN.
func clampToI32(f float64) int32 {
	if f != f || f >= math.MaxInt32+1 || f < math.MinInt32 {
		return math.MinInt32
	}
	return int32(f)
}

// setRISC writes a RISC-family destination register, discarding writes
// to the hardwired zero x0 — the one register-file rule the shared IR
// carries for the RV32I frontend.
func setRISC(s *State, r Reg, v uint32) {
	if r != 0 {
		s.Regs[r] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func aluSrc(s *State, inst *Inst) uint32 {
	switch inst.Op {
	case OpAddRR, OpSubRR, OpAndRR, OpOrRR, OpXorRR, OpCmpRR:
		return s.Regs[inst.R2]
	default:
		return uint32(inst.Imm)
	}
}
