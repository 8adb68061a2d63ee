package host

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// Outcome describes the architectural side effects of one executed host
// instruction, consumed by the engine to build the dynamic stream fed
// to the timing simulator.
type Outcome struct {
	MemAddr uint32
	IsLoad  bool
	IsStore bool
	Taken   bool
	Target  uint32
	Halted  bool
}

// CPU is the functional model of the host processor. It executes
// decoded host instructions against the host address space.
type CPU struct {
	R   [NumRegs]uint32
	F   [NumFRegs]float64
	PC  uint32
	Mem mem.Memory
}

// NewCPU returns a CPU bound to the given host memory, with the guest
// memory window base preloaded into RMemBase per the translation ABI.
func NewCPU(m mem.Memory) *CPU {
	c := &CPU{Mem: m}
	c.R[RMemBase] = mem.GuestWindowBase
	return c
}

// Exec executes one decoded instruction at the current PC, updating
// architectural state and PC, and filling *out with side effects.
func (c *CPU) Exec(i *Inst, out *Outcome) error {
	*out = Outcome{}
	next := c.PC + InstBytes

	switch i.Op {
	case Nop:
	case Halt:
		out.Halted = true
		return nil

	case Lui:
		c.setR(i.Rd, uint32(i.Imm)<<16)
	case Ori:
		c.setR(i.Rd, c.R[i.Rs1]|uint32(i.Imm)&0xffff)

	case Add:
		c.setR(i.Rd, c.R[i.Rs1]+c.R[i.Rs2])
	case Sub:
		c.setR(i.Rd, c.R[i.Rs1]-c.R[i.Rs2])
	case And:
		c.setR(i.Rd, c.R[i.Rs1]&c.R[i.Rs2])
	case Or:
		c.setR(i.Rd, c.R[i.Rs1]|c.R[i.Rs2])
	case Xor:
		c.setR(i.Rd, c.R[i.Rs1]^c.R[i.Rs2])
	case Sll:
		c.setR(i.Rd, c.R[i.Rs1]<<(c.R[i.Rs2]&31))
	case Srl:
		c.setR(i.Rd, c.R[i.Rs1]>>(c.R[i.Rs2]&31))
	case Sra:
		c.setR(i.Rd, uint32(int32(c.R[i.Rs1])>>(c.R[i.Rs2]&31)))
	case Mul:
		c.setR(i.Rd, c.R[i.Rs1]*c.R[i.Rs2])
	case Div:
		if d := c.R[i.Rs2]; d == 0 {
			c.setR(i.Rd, 0xffff_ffff)
		} else {
			c.setR(i.Rd, c.R[i.Rs1]/d)
		}
	case Slt:
		c.setR(i.Rd, b2u(int32(c.R[i.Rs1]) < int32(c.R[i.Rs2])))
	case Sltu:
		c.setR(i.Rd, b2u(c.R[i.Rs1] < c.R[i.Rs2]))

	case Addi:
		c.setR(i.Rd, c.R[i.Rs1]+uint32(i.Imm))
	case Andi:
		c.setR(i.Rd, c.R[i.Rs1]&uint32(i.Imm))
	case Xori:
		c.setR(i.Rd, c.R[i.Rs1]^uint32(i.Imm))
	case Slli:
		c.setR(i.Rd, c.R[i.Rs1]<<(uint32(i.Imm)&31))
	case Srli:
		c.setR(i.Rd, c.R[i.Rs1]>>(uint32(i.Imm)&31))
	case Srai:
		c.setR(i.Rd, uint32(int32(c.R[i.Rs1])>>(uint32(i.Imm)&31)))
	case Slti:
		c.setR(i.Rd, b2u(int32(c.R[i.Rs1]) < i.Imm))
	case Sltiu:
		c.setR(i.Rd, b2u(c.R[i.Rs1] < uint32(i.Imm)))

	case Ld:
		addr := c.R[i.Rs1] + uint32(i.Imm)
		c.setR(i.Rd, c.Mem.Read32(addr))
		out.MemAddr, out.IsLoad = addr, true
	case St:
		addr := c.R[i.Rs1] + uint32(i.Imm)
		c.Mem.Write32(addr, c.R[i.Rs2])
		out.MemAddr, out.IsStore = addr, true

	case Beq:
		if c.R[i.Rs1] == c.R[i.Rs2] {
			next += uint32(i.Imm)
			out.Taken = true
		}
	case Bne:
		if c.R[i.Rs1] != c.R[i.Rs2] {
			next += uint32(i.Imm)
			out.Taken = true
		}
	case Blt:
		if int32(c.R[i.Rs1]) < int32(c.R[i.Rs2]) {
			next += uint32(i.Imm)
			out.Taken = true
		}
	case Bge:
		if int32(c.R[i.Rs1]) >= int32(c.R[i.Rs2]) {
			next += uint32(i.Imm)
			out.Taken = true
		}
	case Bltu:
		if c.R[i.Rs1] < c.R[i.Rs2] {
			next += uint32(i.Imm)
			out.Taken = true
		}
	case Bgeu:
		if c.R[i.Rs1] >= c.R[i.Rs2] {
			next += uint32(i.Imm)
			out.Taken = true
		}
	case Jal:
		c.setR(i.Rd, next)
		next += uint32(i.Imm)
		out.Taken = true
	case Jalr:
		target := c.R[i.Rs1] + uint32(i.Imm)
		c.setR(i.Rd, c.PC+InstBytes)
		next = target
		out.Taken = true

	case FAdd:
		c.F[i.Rd] = c.F[i.Rs1] + c.F[i.Rs2]
	case FSub:
		c.F[i.Rd] = c.F[i.Rs1] - c.F[i.Rs2]
	case FMov:
		c.F[i.Rd] = c.F[i.Rs1]
	case FMul:
		c.F[i.Rd] = c.F[i.Rs1] * c.F[i.Rs2]
	case FDiv:
		c.F[i.Rd] = c.F[i.Rs1] / c.F[i.Rs2]
	case FLd:
		addr := c.R[i.Rs1] + uint32(i.Imm)
		c.F[i.Rd] = math.Float64frombits(c.Mem.Read64(addr))
		out.MemAddr, out.IsLoad = addr, true
	case FSt:
		addr := c.R[i.Rs1] + uint32(i.Imm)
		c.Mem.Write64(addr, math.Float64bits(c.F[i.Rs2]))
		out.MemAddr, out.IsStore = addr, true
	case FEq:
		c.setR(i.Rd, b2u(c.F[i.Rs1] == c.F[i.Rs2]))
	case FLt:
		c.setR(i.Rd, b2u(c.F[i.Rs1] < c.F[i.Rs2]))
	case FCvtIF:
		c.F[i.Rd] = float64(int32(c.R[i.Rs1]))
	case FCvtFI:
		c.setR(i.Rd, uint32(clampToI32(c.F[i.Rs1])))

	default:
		return fmt.Errorf("host: unimplemented opcode %s at pc=%#x", i.Op, c.PC)
	}

	if out.Taken {
		out.Target = next
	}
	c.PC = next
	return nil
}

// setR writes a register, keeping R0 hardwired to zero.
func (c *CPU) setR(r Reg, v uint32) {
	if r != RZero {
		c.R[r] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// clampToI32 matches the guest's float-to-int conversion semantics so
// translated OpCvtFI is bit-exact with the reference emulator.
func clampToI32(f float64) int32 {
	if f != f || f >= math.MaxInt32+1 || f < math.MinInt32 {
		return math.MinInt32
	}
	return int32(f)
}
