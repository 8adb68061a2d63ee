package guest

import (
	"fmt"

	"repro/internal/mem"
)

// Program is a loadable guest binary image.
type Program struct {
	Entry      uint32
	Code       []byte
	Data       []DataSeg
	StaticInst int // number of static guest instructions in Code

	// ISA names the frontend whose encodings Code holds. Empty means
	// x86, so programs predating the second frontend keep their
	// meaning. Resolve with ISAOf.
	ISA string
}

// DataSeg is an initialized data segment.
type DataSeg struct {
	Addr  uint32
	Bytes []byte
}

// LoadInto places the program image into a guest memory space and
// returns the initial architectural state per the program's frontend
// (EIP at entry, the frontend's stack pointer at the top of the guest
// stack). An unregistered Program.ISA panics — callers validate ISA
// names at the configuration boundary.
func (p *Program) LoadInto(m mem.Memory) State {
	isa, err := ISAOf(p)
	if err != nil {
		panic(err)
	}
	for i, b := range p.Code {
		m.Write8(mem.GuestCodeBase+uint32(i), b)
	}
	for _, seg := range p.Data {
		for i, b := range seg.Bytes {
			m.Write8(seg.Addr+uint32(i), b)
		}
	}
	var s State
	isa.InitState(&s, p.Entry)
	return s
}

// LoadIntoWindow places the program image into the host address space
// through the guest memory window, for the co-design component.
func (p *Program) LoadIntoWindow(m mem.Memory) {
	for i, b := range p.Code {
		m.Write8(mem.GuestToHost(mem.GuestCodeBase+uint32(i)), b)
	}
	for _, seg := range p.Data {
		for i, b := range seg.Bytes {
			m.Write8(mem.GuestToHost(seg.Addr+uint32(i)), b)
		}
	}
}

// Builder assembles guest programs with symbolic labels. Instruction
// methods append one instruction each; Build performs label resolution
// (all encodings have fixed per-opcode sizes, so a single layout pass
// suffices) and returns the final image.
type Builder struct {
	insts  []Inst
	fixups map[int]string // instruction index -> target label
	labels map[string]int // label -> instruction index
	data   []DataSeg
	err    error
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{
		fixups: make(map[int]string),
		labels: make(map[string]int),
	}
}

func (b *Builder) emit(i Inst) *Builder {
	i.Size = uint8(SizeOf(i.Op))
	b.insts = append(b.insts, i)
	return b
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.insts)
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Data adds an initialized data segment at a fixed guest address.
func (b *Builder) Data(addr uint32, bytes []byte) *Builder {
	b.data = append(b.data, DataSeg{Addr: addr, Bytes: bytes})
	return b
}

// Nop and the rest of the instruction constructors mirror the ISA.
func (b *Builder) Nop() *Builder  { return b.emit(Inst{Op: OpNop}) }
func (b *Builder) Halt() *Builder { return b.emit(Inst{Op: OpHalt}) }

func (b *Builder) MovRR(dst, src Reg) *Builder {
	return b.emit(Inst{Op: OpMovRR, R1: dst, R2: src})
}
func (b *Builder) MovRI(dst Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpMovRI, R1: dst, Imm: imm})
}
func (b *Builder) Load(dst, base Reg, disp int32) *Builder {
	return b.emit(Inst{Op: OpLoad, R1: dst, RB: base, Imm: disp})
}
func (b *Builder) Store(base Reg, disp int32, src Reg) *Builder {
	return b.emit(Inst{Op: OpStore, R1: src, RB: base, Imm: disp})
}
func (b *Builder) LoadIdx(dst, base, idx Reg, scale uint8, disp int32) *Builder {
	return b.emit(Inst{Op: OpLoadIdx, R1: dst, RB: base, RI: idx, Scale: scale, Imm: disp})
}
func (b *Builder) StoreIdx(base, idx Reg, scale uint8, disp int32, src Reg) *Builder {
	return b.emit(Inst{Op: OpStoreIdx, R1: src, RB: base, RI: idx, Scale: scale, Imm: disp})
}
func (b *Builder) Lea(dst, base Reg, disp int32) *Builder {
	return b.emit(Inst{Op: OpLea, R1: dst, RB: base, Imm: disp})
}

func (b *Builder) AddRR(dst, src Reg) *Builder { return b.emit(Inst{Op: OpAddRR, R1: dst, R2: src}) }
func (b *Builder) SubRR(dst, src Reg) *Builder { return b.emit(Inst{Op: OpSubRR, R1: dst, R2: src}) }
func (b *Builder) AndRR(dst, src Reg) *Builder { return b.emit(Inst{Op: OpAndRR, R1: dst, R2: src}) }
func (b *Builder) OrRR(dst, src Reg) *Builder  { return b.emit(Inst{Op: OpOrRR, R1: dst, R2: src}) }
func (b *Builder) XorRR(dst, src Reg) *Builder { return b.emit(Inst{Op: OpXorRR, R1: dst, R2: src}) }
func (b *Builder) CmpRR(a, c Reg) *Builder     { return b.emit(Inst{Op: OpCmpRR, R1: a, R2: c}) }
func (b *Builder) TestRR(a, c Reg) *Builder    { return b.emit(Inst{Op: OpTestRR, R1: a, R2: c}) }
func (b *Builder) ImulRR(dst, src Reg) *Builder {
	return b.emit(Inst{Op: OpImulRR, R1: dst, R2: src})
}
func (b *Builder) DivRR(dst, src Reg) *Builder { return b.emit(Inst{Op: OpDivRR, R1: dst, R2: src}) }

func (b *Builder) AddRI(dst Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpAddRI, R1: dst, Imm: imm})
}
func (b *Builder) SubRI(dst Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpSubRI, R1: dst, Imm: imm})
}
func (b *Builder) AndRI(dst Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpAndRI, R1: dst, Imm: imm})
}
func (b *Builder) OrRI(dst Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpOrRI, R1: dst, Imm: imm})
}
func (b *Builder) XorRI(dst Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpXorRI, R1: dst, Imm: imm})
}
func (b *Builder) CmpRI(r Reg, imm int32) *Builder {
	return b.emit(Inst{Op: OpCmpRI, R1: r, Imm: imm})
}

func (b *Builder) Inc(r Reg) *Builder { return b.emit(Inst{Op: OpIncR, R1: r}) }
func (b *Builder) Dec(r Reg) *Builder { return b.emit(Inst{Op: OpDecR, R1: r}) }
func (b *Builder) Neg(r Reg) *Builder { return b.emit(Inst{Op: OpNegR, R1: r}) }
func (b *Builder) Not(r Reg) *Builder { return b.emit(Inst{Op: OpNotR, R1: r}) }

func (b *Builder) Shl(r Reg, count int32) *Builder {
	return b.emit(Inst{Op: OpShlRI, R1: r, Imm: count})
}
func (b *Builder) Shr(r Reg, count int32) *Builder {
	return b.emit(Inst{Op: OpShrRI, R1: r, Imm: count})
}
func (b *Builder) Sar(r Reg, count int32) *Builder {
	return b.emit(Inst{Op: OpSarRI, R1: r, Imm: count})
}

func (b *Builder) Push(r Reg) *Builder { return b.emit(Inst{Op: OpPushR, R1: r}) }
func (b *Builder) Pop(r Reg) *Builder  { return b.emit(Inst{Op: OpPopR, R1: r}) }

// Jmp emits an unconditional jump to a label.
func (b *Builder) Jmp(label string) *Builder {
	b.fixups[len(b.insts)] = label
	return b.emit(Inst{Op: OpJmp})
}

// Jcc emits a conditional jump to a label.
func (b *Builder) Jcc(c Cond, label string) *Builder {
	b.fixups[len(b.insts)] = label
	return b.emit(Inst{Op: OpJcc, Cond: c})
}

// JmpInd emits a register-indirect jump (target = value of r).
func (b *Builder) JmpInd(r Reg) *Builder { return b.emit(Inst{Op: OpJmpInd, R1: r}) }

// Call emits a direct call to a label.
func (b *Builder) Call(label string) *Builder {
	b.fixups[len(b.insts)] = label
	return b.emit(Inst{Op: OpCallRel})
}

// CallInd emits an indirect call through register r.
func (b *Builder) CallInd(r Reg) *Builder { return b.emit(Inst{Op: OpCallInd, R1: r}) }

// Ret emits a return.
func (b *Builder) Ret() *Builder { return b.emit(Inst{Op: OpRet}) }

func (b *Builder) FLoad(dst FReg, base Reg, disp int32) *Builder {
	return b.emit(Inst{Op: OpFLoad, F1: dst, RB: base, Imm: disp})
}
func (b *Builder) FStore(base Reg, disp int32, src FReg) *Builder {
	return b.emit(Inst{Op: OpFStore, F1: src, RB: base, Imm: disp})
}
func (b *Builder) FMov(dst, src FReg) *Builder {
	return b.emit(Inst{Op: OpFMovRR, F1: dst, F2: src})
}
func (b *Builder) FAdd(dst, src FReg) *Builder { return b.emit(Inst{Op: OpFAdd, F1: dst, F2: src}) }
func (b *Builder) FSub(dst, src FReg) *Builder { return b.emit(Inst{Op: OpFSub, F1: dst, F2: src}) }
func (b *Builder) FMul(dst, src FReg) *Builder { return b.emit(Inst{Op: OpFMul, F1: dst, F2: src}) }
func (b *Builder) FDiv(dst, src FReg) *Builder { return b.emit(Inst{Op: OpFDiv, F1: dst, F2: src}) }
func (b *Builder) FCmp(a, c FReg) *Builder     { return b.emit(Inst{Op: OpFCmp, F1: a, F2: c}) }
func (b *Builder) CvtIF(dst FReg, src Reg) *Builder {
	return b.emit(Inst{Op: OpCvtIF, F1: dst, R2: src})
}
func (b *Builder) CvtFI(dst Reg, src FReg) *Builder {
	return b.emit(Inst{Op: OpCvtFI, R1: dst, F2: src})
}

// MovLabel loads the absolute guest address of a label into a register,
// the building block of jump tables and indirect calls.
func (b *Builder) MovLabel(dst Reg, label string) *Builder {
	b.fixups[len(b.insts)] = "=" + label // absolute fixup
	return b.emit(Inst{Op: OpMovRI, R1: dst})
}

// InstCount returns the number of instructions emitted so far.
func (b *Builder) InstCount() int { return len(b.insts) }

// AddrOf returns the final guest address of a label. Only valid after
// Build has been called.
func (b *Builder) AddrOf(label string) (uint32, bool) {
	idx, ok := b.labels[label]
	if !ok {
		return 0, false
	}
	off := uint32(0)
	for i := 0; i < idx; i++ {
		off += uint32(b.insts[i].Size)
	}
	return mem.GuestCodeBase + off, true
}

// Build resolves labels and produces the program image. The entry point
// is the label "start" if defined, otherwise the first instruction.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Compute instruction offsets.
	offsets := make([]uint32, len(b.insts)+1)
	off := uint32(0)
	for i := range b.insts {
		offsets[i] = off
		off += uint32(b.insts[i].Size)
	}
	offsets[len(b.insts)] = off

	// Resolve fixups.
	for idx, label := range b.fixups {
		absolute := false
		if label[0] == '=' {
			absolute = true
			label = label[1:]
		}
		ti, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("guest: undefined label %q", label)
		}
		target := mem.GuestCodeBase + offsets[ti]
		if absolute {
			b.insts[idx].Imm = int32(target)
		} else {
			// Relative to the end of the branch instruction.
			end := mem.GuestCodeBase + offsets[idx] + uint32(b.insts[idx].Size)
			b.insts[idx].Imm = int32(target - end)
		}
	}

	code := make([]byte, 0, off)
	for i := range b.insts {
		code = Encode(code, b.insts[i])
	}
	if uint32(len(code)) != off {
		return nil, fmt.Errorf("guest: layout mismatch: %d != %d", len(code), off)
	}

	entry := mem.GuestCodeBase
	if si, ok := b.labels["start"]; ok {
		entry = mem.GuestCodeBase + offsets[si]
	}
	return &Program{
		Entry:      entry,
		Code:       code,
		Data:       b.data,
		StaticInst: len(b.insts),
	}, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
