package tol

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/mem"
)

// The translator turns guest basic blocks (and, for SBM, superblocks)
// into host code. Guest architectural state is pinned in the
// application half of the host register file per the ABI in package
// host: r32..r39 hold EAX..EDI, r40 holds the EFLAGS image, f16..f23
// hold F0..F7, and r41 holds the guest memory window base. Condition
// flags are materialized into r40 only when a consumer may observe
// them (dead flag definitions are elided — the translator's flavor of
// dead code elimination), which reproduces the cost asymmetry between
// flag-writing and plain instructions the paper highlights.

// Scratch registers available to translated code. The superblock
// optimizer's allocatable range starts above these.
const (
	sc0 = host.RAppS0 // r42 — also carries the guest target at indirect exits
	sc1 = host.RAppS1 // r43
	sc2 = host.Reg(44)
	sc3 = host.Reg(45)
	// allocFirst..allocLast are available to the superblock register
	// allocator for caching memory values across guest instructions.
	allocFirst = host.Reg(46)
	allocLast  = host.RAllocEnd
)

func rF(f guest.FReg) host.FReg { return host.GuestFReg(uint8(f)) }

// label identifies a forward-branch fixup target inside an emitter.
type label int

// emitter accumulates host code for one translation. Guest registers
// reach host registers through the frontend's regPlan, so the same
// emitter body serves both ABIs.
type emitter struct {
	plan    *regPlan
	code    []host.Inst
	fixups  map[int]label // code index -> label of branch target
	labels  map[label]int // label -> code index
	nextLbl label
	exits   map[int]*ExitInfo // code index -> exit (on the branch there)
}

func newEmitter(plan *regPlan) *emitter {
	return &emitter{
		plan:   plan,
		fixups: make(map[int]label),
		labels: make(map[label]int),
		exits:  make(map[int]*ExitInfo),
	}
}

// reset empties the emitter for the next translation, keeping its
// code buffer and maps.
func (e *emitter) reset() {
	e.code = e.code[:0]
	clear(e.fixups)
	clear(e.labels)
	clear(e.exits)
	e.nextLbl = 0
}

// r returns the pinned host register for guest integer register g.
func (e *emitter) r(g guest.Reg) host.Reg { return e.plan.r(g) }

func (e *emitter) emit(i host.Inst) int {
	e.code = append(e.code, i)
	return len(e.code) - 1
}

func (e *emitter) loadImm(rd host.Reg, v uint32) {
	e.code = host.LoadImm32(e.code, rd, v)
}

// mov emits a register copy.
func (e *emitter) mov(rd, rs host.Reg) {
	e.emit(host.Inst{Op: host.Or, Rd: rd, Rs1: rs, Rs2: host.RZero})
}

func (e *emitter) newLabel() label {
	e.nextLbl++
	return e.nextLbl
}

func (e *emitter) define(l label) {
	e.labels[l] = len(e.code)
}

// branch emits a conditional branch to a label (fixed up at seal time).
func (e *emitter) branch(op host.Op, rs1, rs2 host.Reg, l label) {
	idx := e.emit(host.Inst{Op: op, Rs1: rs1, Rs2: rs2})
	e.fixups[idx] = l
}

// exitStub emits a one-instruction stub jumping to the TOL entry point
// and registers the exit metadata on it. Chaining later patches the
// same slot to a direct jump.
func (e *emitter) exitStub(info *ExitInfo) int {
	idx := e.emit(host.Inst{Op: host.Jal, Rd: host.RZero})
	e.exits[idx] = info
	return idx
}

// seal resolves label fixups and the TOL-entry targets of exit stubs,
// given the translation's future placement base (slot-relative; the
// code cache rewrites to absolute PCs via Place).
func (e *emitter) seal(basePC uint32) error {
	for idx, l := range e.fixups {
		t, ok := e.labels[l]
		if !ok {
			return fmt.Errorf("tol: unresolved label %d", l)
		}
		e.code[idx].Imm = int32(t-(idx+1)) * host.InstBytes
	}
	for idx, info := range e.exits {
		if info.Reason == ExitIBTCHit {
			continue // jalr, no fixup
		}
		pc := basePC + uint32(idx)*host.InstBytes
		e.code[idx].Imm = int32(TOLEntry) - int32(pc+host.InstBytes)
	}
	return nil
}

// flagsLiveness computes, for each instruction of a block, whether its
// flag definition must be materialized: true when a later instruction
// in the block reads flags before the next flag write, or when it is
// the last flag writer (flags are architecturally live-out at block
// boundaries so that the state checker and the interpreter always see
// correct EFLAGS).
func flagsLiveness(insts []guest.Inst) []bool {
	mat := make([]bool, len(insts))
	for i := range insts {
		if !insts[i].WritesFlags() {
			continue
		}
		mat[i] = true // conservative: live-out
		for j := i + 1; j < len(insts); j++ {
			if insts[j].ReadsFlags() {
				break // consumer found: stays true
			}
			if insts[j].WritesFlags() {
				mat[i] = false // overwritten before any read: dead
				break
			}
		}
	}
	return mat
}

// Flag packing helpers. Bit positions follow the guest EFLAGS layout.

// packSZ packs ZF and SF of the value in res into r40 (CF=OF=0).
func (e *emitter) packSZ(res host.Reg) {
	e.emit(host.Inst{Op: host.Sltiu, Rd: sc1, Rs1: res, Imm: 1}) // ZF
	e.emit(host.Inst{Op: host.Slli, Rd: sc1, Rs1: sc1, Imm: 6})
	e.emit(host.Inst{Op: host.Srli, Rd: host.RFlags, Rs1: res, Imm: 31}) // SF
	e.emit(host.Inst{Op: host.Slli, Rd: host.RFlags, Rs1: host.RFlags, Imm: 7})
	e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: host.RFlags, Rs2: sc1})
}

// flagsArith materializes CF/ZF/SF/OF after an add or sub.
//
//	old: pre-op destination value; b: pre-op source value; res: result.
//
// CF needs no source operand: for add, carry ⇔ res < old; for sub,
// borrow ⇔ old < res.
func (e *emitter) flagsArith(old, b, res host.Reg, isSub bool) {
	// CF into sc1.
	if isSub {
		e.emit(host.Inst{Op: host.Sltu, Rd: sc1, Rs1: old, Rs2: res})
	} else {
		e.emit(host.Inst{Op: host.Sltu, Rd: sc1, Rs1: res, Rs2: old})
	}
	// OF into sc3: sign of ((old^b [^~ for add]) & (old^res)).
	e.emit(host.Inst{Op: host.Xor, Rd: sc3, Rs1: old, Rs2: b})
	if !isSub {
		e.emit(host.Inst{Op: host.Xori, Rd: sc3, Rs1: sc3, Imm: -1})
	}
	e.emit(host.Inst{Op: host.Xor, Rd: host.RFlags, Rs1: old, Rs2: res})
	e.emit(host.Inst{Op: host.And, Rd: sc3, Rs1: sc3, Rs2: host.RFlags})
	e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: sc3, Imm: 31})
	// Pack: r40 = CF | ZF<<6 | SF<<7 | OF<<11.
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 11})
	e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
	e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: res, Imm: 1}) // ZF
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 6})
	e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
	e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: res, Imm: 31}) // SF
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 7})
	e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: sc1, Rs2: sc3})
}

// flagsIncDec materializes flags after inc/dec, preserving CF which was
// saved in cfSaved (bit 0) before r40 was clobbered.
func (e *emitter) flagsIncDec(res host.Reg, cfSaved host.Reg, isDec bool) {
	// OF: inc overflows at 0x80000000, dec at 0x7fffffff.
	magic := uint32(0x8000_0000)
	if isDec {
		magic = 0x7fff_ffff
	}
	e.loadImm(sc3, magic)
	e.emit(host.Inst{Op: host.Xor, Rd: sc3, Rs1: sc3, Rs2: res})
	e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: sc3, Imm: 1})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 11})
	e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: cfSaved, Rs2: sc3})
	e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: res, Imm: 1})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 6})
	e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
	e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: res, Imm: 31})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 7})
	e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: sc1, Rs2: sc3})
}

// flagsShift materializes flags after a shift: CF was computed into
// cfReg (bit 0); ZF/SF from res; OF=0.
func (e *emitter) flagsShift(res, cfReg host.Reg) {
	e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: res, Imm: 1})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 6})
	e.emit(host.Inst{Op: host.Or, Rd: cfReg, Rs1: cfReg, Rs2: sc3})
	e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: res, Imm: 31})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 7})
	e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: cfReg, Rs2: sc3})
}

// condTest emits code computing "condition holds" into sc0 (0/1) from
// the flags in r40.
func (e *emitter) condTest(c guest.Cond) {
	switch c {
	case guest.CondE, guest.CondNE:
		e.emit(host.Inst{Op: host.Andi, Rd: sc0, Rs1: host.RFlags, Imm: int32(guest.FlagZF)})
	case guest.CondB, guest.CondAE:
		e.emit(host.Inst{Op: host.Andi, Rd: sc0, Rs1: host.RFlags, Imm: int32(guest.FlagCF)})
	case guest.CondS, guest.CondNS:
		e.emit(host.Inst{Op: host.Andi, Rd: sc0, Rs1: host.RFlags, Imm: int32(guest.FlagSF)})
	case guest.CondL, guest.CondGE:
		// SF != OF.
		e.emit(host.Inst{Op: host.Srli, Rd: sc0, Rs1: host.RFlags, Imm: 7})
		e.emit(host.Inst{Op: host.Srli, Rd: sc1, Rs1: host.RFlags, Imm: 11})
		e.emit(host.Inst{Op: host.Xor, Rd: sc0, Rs1: sc0, Rs2: sc1})
		e.emit(host.Inst{Op: host.Andi, Rd: sc0, Rs1: sc0, Imm: 1})
	case guest.CondLE, guest.CondG:
		// ZF || SF != OF.
		e.emit(host.Inst{Op: host.Srli, Rd: sc0, Rs1: host.RFlags, Imm: 7})
		e.emit(host.Inst{Op: host.Srli, Rd: sc1, Rs1: host.RFlags, Imm: 11})
		e.emit(host.Inst{Op: host.Xor, Rd: sc0, Rs1: sc0, Rs2: sc1})
		e.emit(host.Inst{Op: host.Srli, Rd: sc1, Rs1: host.RFlags, Imm: 6})
		e.emit(host.Inst{Op: host.Or, Rd: sc0, Rs1: sc0, Rs2: sc1})
		e.emit(host.Inst{Op: host.Andi, Rd: sc0, Rs1: sc0, Imm: 1})
	default:
		panic(fmt.Sprintf("tol: condTest on invalid condition %d", c))
	}
}

// condBranch emits a branch to label l taken when condition c holds
// (taken==true) or does not hold.
func (e *emitter) condBranch(c guest.Cond, taken bool, l label) {
	e.condTest(c)
	// For the "positive" conditions of each pair the test is nonzero
	// when the condition holds; negated pairs invert the branch sense.
	positive := c == guest.CondE || c == guest.CondB || c == guest.CondS ||
		c == guest.CondL || c == guest.CondLE
	op := host.Bne
	if positive != taken {
		op = host.Beq
	}
	e.branch(op, sc0, host.RZero, l)
}

// guestAddr emits computation of the host window address for a guest
// base register + displacement into rd.
func (e *emitter) guestAddr(rd host.Reg, base guest.Reg, disp int32) (host.Reg, int32) {
	e.emit(host.Inst{Op: host.Add, Rd: rd, Rs1: host.RMemBase, Rs2: e.r(base)})
	return rd, disp
}

// emitGuestInst translates one non-control-flow guest instruction.
// matFlags selects whether a flag-writing instruction materializes its
// flags into r40.
func (e *emitter) emitGuestInst(in *guest.Inst, matFlags bool) {
	switch in.Op {
	case guest.OpNop:
		// No code.
	case guest.OpMovRR:
		e.mov(e.r(in.R1), e.r(in.R2))
	case guest.OpMovRI:
		e.loadImm(e.r(in.R1), uint32(in.Imm))
	case guest.OpLea:
		e.emit(host.Inst{Op: host.Addi, Rd: e.r(in.R1), Rs1: e.r(in.RB), Imm: in.Imm})

	case guest.OpLoad:
		r, d := e.guestAddr(sc0, in.RB, in.Imm)
		e.emit(host.Inst{Op: host.Ld, Rd: e.r(in.R1), Rs1: r, Imm: d})
	case guest.OpStore:
		r, d := e.guestAddr(sc0, in.RB, in.Imm)
		e.emit(host.Inst{Op: host.St, Rs1: r, Rs2: e.r(in.R1), Imm: d})
	case guest.OpLoadIdx, guest.OpStoreIdx:
		if in.Scale > 1 {
			e.emit(host.Inst{Op: host.Slli, Rd: sc0, Rs1: e.r(in.RI), Imm: int32(log2u(in.Scale))})
			e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: sc0, Rs2: e.r(in.RB)})
		} else {
			e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: e.r(in.RI), Rs2: e.r(in.RB)})
		}
		e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: sc0, Rs2: host.RMemBase})
		if in.Op == guest.OpLoadIdx {
			e.emit(host.Inst{Op: host.Ld, Rd: e.r(in.R1), Rs1: sc0, Imm: in.Imm})
		} else {
			e.emit(host.Inst{Op: host.St, Rs1: sc0, Rs2: e.r(in.R1), Imm: in.Imm})
		}

	case guest.OpAddRR, guest.OpSubRR, guest.OpCmpRR,
		guest.OpAddRI, guest.OpSubRI, guest.OpCmpRI:
		e.emitArith(in, matFlags)

	case guest.OpAndRR, guest.OpOrRR, guest.OpXorRR, guest.OpTestRR,
		guest.OpAndRI, guest.OpOrRI, guest.OpXorRI:
		e.emitLogic(in, matFlags)

	case guest.OpImulRR:
		e.emit(host.Inst{Op: host.Mul, Rd: e.r(in.R1), Rs1: e.r(in.R1), Rs2: e.r(in.R2)})
		if matFlags {
			e.packSZ(e.r(in.R1))
		}
	case guest.OpDivRR:
		e.emit(host.Inst{Op: host.Div, Rd: e.r(in.R1), Rs1: e.r(in.R1), Rs2: e.r(in.R2)})

	case guest.OpIncR, guest.OpDecR:
		isDec := in.Op == guest.OpDecR
		imm := int32(1)
		if isDec {
			imm = -1
		}
		if matFlags {
			e.emit(host.Inst{Op: host.Andi, Rd: sc2, Rs1: host.RFlags, Imm: int32(guest.FlagCF)})
		}
		e.emit(host.Inst{Op: host.Addi, Rd: e.r(in.R1), Rs1: e.r(in.R1), Imm: imm})
		if matFlags {
			e.flagsIncDec(e.r(in.R1), sc2, isDec)
		}
	case guest.OpNegR:
		if matFlags {
			e.mov(sc2, e.r(in.R1)) // old value
		}
		e.emit(host.Inst{Op: host.Sub, Rd: e.r(in.R1), Rs1: host.RZero, Rs2: e.r(in.R1)})
		if matFlags {
			// CF = old != 0; OF = old == 0x80000000. Reuse the arith
			// packer with b=0: old^0 = old gives exactly the NEG
			// overflow predicate sign((old) & (old^res)) — old^res has
			// the sign bit set unless res==old==0x80000000... compute
			// directly instead.
			e.emit(host.Inst{Op: host.Sltu, Rd: sc1, Rs1: host.RZero, Rs2: sc2}) // CF
			e.loadImm(sc3, 0x8000_0000)
			e.emit(host.Inst{Op: host.Xor, Rd: sc3, Rs1: sc3, Rs2: sc2})
			e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: sc3, Imm: 1}) // OF
			e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 11})
			e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
			e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: e.r(in.R1), Imm: 1}) // ZF
			e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 6})
			e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
			e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: e.r(in.R1), Imm: 31}) // SF
			e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 7})
			e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: sc1, Rs2: sc3})
		}
	case guest.OpNotR:
		e.emit(host.Inst{Op: host.Xori, Rd: e.r(in.R1), Rs1: e.r(in.R1), Imm: -1})

	case guest.OpShlRI, guest.OpShrRI, guest.OpSarRI:
		count := uint32(in.Imm) & 31
		if count == 0 {
			return // guest semantics: no state change at all
		}
		var op host.Op
		var cfShift int32
		switch in.Op {
		case guest.OpShlRI:
			op, cfShift = host.Slli, int32(32-count)
		case guest.OpShrRI:
			op, cfShift = host.Srli, int32(count-1)
		default:
			op, cfShift = host.Srai, int32(count-1)
		}
		if matFlags {
			e.emit(host.Inst{Op: host.Srli, Rd: sc2, Rs1: e.r(in.R1), Imm: cfShift})
			e.emit(host.Inst{Op: host.Andi, Rd: sc2, Rs1: sc2, Imm: 1})
		}
		e.emit(host.Inst{Op: op, Rd: e.r(in.R1), Rs1: e.r(in.R1), Imm: int32(count)})
		if matFlags {
			e.flagsShift(e.r(in.R1), sc2)
		}

	case guest.OpPushR:
		e.emit(host.Inst{Op: host.Addi, Rd: e.r(guest.ESP), Rs1: e.r(guest.ESP), Imm: -4})
		e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: host.RMemBase, Rs2: e.r(guest.ESP)})
		e.emit(host.Inst{Op: host.St, Rs1: sc0, Rs2: e.r(in.R1)})
	case guest.OpPopR:
		e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: host.RMemBase, Rs2: e.r(guest.ESP)})
		e.emit(host.Inst{Op: host.Ld, Rd: e.r(in.R1), Rs1: sc0})
		e.emit(host.Inst{Op: host.Addi, Rd: e.r(guest.ESP), Rs1: e.r(guest.ESP), Imm: 4})

	case guest.OpFLoad:
		r, d := e.guestAddr(sc0, in.RB, in.Imm)
		e.emit(host.Inst{Op: host.FLd, Rd: host.Reg(rF(in.F1)), Rs1: r, Imm: d})
	case guest.OpFStore:
		r, d := e.guestAddr(sc0, in.RB, in.Imm)
		e.emit(host.Inst{Op: host.FSt, Rs1: r, Rs2: host.Reg(rF(in.F1)), Imm: d})
	case guest.OpFMovRR:
		e.emit(host.Inst{Op: host.FMov, Rd: host.Reg(rF(in.F1)), Rs1: host.Reg(rF(in.F2))})
	case guest.OpFAdd:
		e.emitFPArith(host.FAdd, in)
	case guest.OpFSub:
		e.emitFPArith(host.FSub, in)
	case guest.OpFMul:
		e.emitFPArith(host.FMul, in)
	case guest.OpFDiv:
		e.emitFPArith(host.FDiv, in)
	case guest.OpFCmp:
		if matFlags {
			f1, f2 := host.Reg(rF(in.F1)), host.Reg(rF(in.F2))
			e.emit(host.Inst{Op: host.FEq, Rd: sc1, Rs1: f1, Rs2: f2}) // ZF candidate
			e.emit(host.Inst{Op: host.FLt, Rd: sc2, Rs1: f1, Rs2: f2}) // CF candidate
			// Unordered (NaN): x86 FCOMI sets ZF=CF=1. ordered = (f1==f1)&(f2==f2).
			e.emit(host.Inst{Op: host.FEq, Rd: sc3, Rs1: f1, Rs2: f1})
			e.emit(host.Inst{Op: host.FEq, Rd: sc0, Rs1: f2, Rs2: f2})
			e.emit(host.Inst{Op: host.And, Rd: sc3, Rs1: sc3, Rs2: sc0})
			e.emit(host.Inst{Op: host.Xori, Rd: sc3, Rs1: sc3, Imm: 1}) // 1 if unordered
			e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
			e.emit(host.Inst{Op: host.Or, Rd: sc2, Rs1: sc2, Rs2: sc3})
			e.emit(host.Inst{Op: host.Slli, Rd: sc1, Rs1: sc1, Imm: 6})
			e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: sc1, Rs2: sc2})
		}
	case guest.OpCvtIF:
		e.emit(host.Inst{Op: host.FCvtIF, Rd: host.Reg(rF(in.F1)), Rs1: e.r(in.R2)})
	case guest.OpCvtFI:
		e.emit(host.Inst{Op: host.FCvtFI, Rd: e.r(in.R1), Rs1: host.Reg(rF(in.F2))})

	case guest.OpAdd3, guest.OpSub3, guest.OpAnd3, guest.OpOr3,
		guest.OpXor3, guest.OpSll3, guest.OpSrl3, guest.OpSra3,
		guest.OpSlt3, guest.OpSltu3:
		// Flagless three-operand ALU: 1:1 with the host ISA. A
		// hardwired-zero destination pins to host r0, whose writes the
		// CPU discards, so no special casing is needed.
		e.emit(host.Inst{Op: riscRROp(in.Op), Rd: e.r(in.R1), Rs1: e.r(in.R2), Rs2: e.r(in.RB)})

	case guest.OpAddI3, guest.OpAndI3, guest.OpXorI3, guest.OpSllI3,
		guest.OpSrlI3, guest.OpSraI3, guest.OpSltI3, guest.OpSltuI3:
		e.emit(host.Inst{Op: riscRIOp(in.Op), Rd: e.r(in.R1), Rs1: e.r(in.R2), Imm: in.Imm})
	case guest.OpOrI3:
		// The host Ori zero-extends a 16-bit immediate, which matches
		// the guest's sign-extended imm12 only when non-negative.
		if in.Imm >= 0 {
			e.emit(host.Inst{Op: host.Ori, Rd: e.r(in.R1), Rs1: e.r(in.R2), Imm: in.Imm})
		} else {
			e.loadImm(sc1, uint32(in.Imm))
			e.emit(host.Inst{Op: host.Or, Rd: e.r(in.R1), Rs1: e.r(in.R2), Rs2: sc1})
		}

	default:
		panic(fmt.Sprintf("tol: emitGuestInst on control-flow op %s", in.Op))
	}
}

// riscRROp maps a flagless register-register guest opcode to its host
// counterpart.
func riscRROp(op guest.Op) host.Op {
	switch op {
	case guest.OpAdd3:
		return host.Add
	case guest.OpSub3:
		return host.Sub
	case guest.OpAnd3:
		return host.And
	case guest.OpOr3:
		return host.Or
	case guest.OpXor3:
		return host.Xor
	case guest.OpSll3:
		return host.Sll
	case guest.OpSrl3:
		return host.Srl
	case guest.OpSra3:
		return host.Sra
	case guest.OpSlt3:
		return host.Slt
	case guest.OpSltu3:
		return host.Sltu
	}
	panic(fmt.Sprintf("tol: riscRROp on %s", op))
}

// riscRIOp maps a flagless register-immediate guest opcode to its host
// counterpart (OpOrI3 excepted — see emitGuestInst).
func riscRIOp(op guest.Op) host.Op {
	switch op {
	case guest.OpAddI3:
		return host.Addi
	case guest.OpAndI3:
		return host.Andi
	case guest.OpXorI3:
		return host.Xori
	case guest.OpSllI3:
		return host.Slli
	case guest.OpSrlI3:
		return host.Srli
	case guest.OpSraI3:
		return host.Srai
	case guest.OpSltI3:
		return host.Slti
	case guest.OpSltuI3:
		return host.Sltiu
	}
	panic(fmt.Sprintf("tol: riscRIOp on %s", op))
}

// bccHostOps maps a compare-and-branch condition to the host branch
// opcode testing it and the opcode testing its complement.
func bccHostOps(c guest.Cond) (taken, notTaken host.Op) {
	switch c {
	case guest.CondE:
		return host.Beq, host.Bne
	case guest.CondNE:
		return host.Bne, host.Beq
	case guest.CondL:
		return host.Blt, host.Bge
	case guest.CondGE:
		return host.Bge, host.Blt
	case guest.CondB:
		return host.Bltu, host.Bgeu
	case guest.CondAE:
		return host.Bgeu, host.Bltu
	}
	panic(fmt.Sprintf("tol: bccHostOps on condition %d", c))
}

// cmpBranch emits a compare-and-branch over two pinned guest registers
// to label l, branching when condition c holds (taken) or does not.
// The flagless counterpart of condBranch.
func (e *emitter) cmpBranch(c guest.Cond, r1, r2 guest.Reg, taken bool, l label) {
	tk, nt := bccHostOps(c)
	op := tk
	if !taken {
		op = nt
	}
	e.branch(op, e.r(r1), e.r(r2), l)
}

func (e *emitter) emitFPArith(op host.Op, in *guest.Inst) {
	f1, f2 := host.Reg(rF(in.F1)), host.Reg(rF(in.F2))
	e.emit(host.Inst{Op: op, Rd: f1, Rs1: f1, Rs2: f2})
}

// emitArith handles add/sub/cmp (register and immediate forms).
func (e *emitter) emitArith(in *guest.Inst, matFlags bool) {
	isSub := in.Op == guest.OpSubRR || in.Op == guest.OpSubRI ||
		in.Op == guest.OpCmpRR || in.Op == guest.OpCmpRI
	isCmp := in.Op == guest.OpCmpRR || in.Op == guest.OpCmpRI
	immForm := in.Op == guest.OpAddRI || in.Op == guest.OpSubRI || in.Op == guest.OpCmpRI

	// Source operand register (materialize immediates when flags need
	// the operand value; otherwise use addi directly).
	var bReg host.Reg
	if immForm {
		if !matFlags {
			// Cheap path: no flags, use immediate ALU.
			dst := e.r(in.R1)
			if isCmp {
				return // compare with dead flags is a complete no-op
			}
			imm := in.Imm
			if isSub {
				imm = -imm
			}
			e.emit(host.Inst{Op: host.Addi, Rd: dst, Rs1: dst, Imm: imm})
			return
		}
		e.loadImm(sc1, uint32(in.Imm))
		bReg = sc1
	} else {
		if isCmp && !matFlags {
			return
		}
		bReg = e.r(in.R2)
	}

	dst := e.r(in.R1)
	hop := host.Add
	if isSub {
		hop = host.Sub
	}
	if !matFlags {
		e.emit(host.Inst{Op: hop, Rd: dst, Rs1: dst, Rs2: bReg})
		return
	}

	// Save the old destination value; if the source aliases the
	// destination (add eax,eax), the saved copy doubles as the operand.
	e.mov(sc2, dst)
	if bReg == dst {
		bReg = sc2
	}
	res := dst
	if isCmp {
		res = sc0
	}
	e.emit(host.Inst{Op: hop, Rd: res, Rs1: dst, Rs2: bReg})
	// flagsArith clobbers sc1; when b was materialized into sc1 the OF
	// computation needs it, so move it aside first.
	if bReg == sc1 {
		// OF term uses old^b before sc1 is reused: compute via the
		// standard sequence with b in sc1 is unsafe, so copy to sc3 is
		// not possible either (sc3 is clobbered too). Use the flags
		// variant below which consumes b first.
		e.flagsArithImmB(sc2, sc1, res, isSub)
		return
	}
	e.flagsArith(sc2, bReg, res, isSub)
}

// flagsArithImmB is flagsArith for the case where b lives in sc1: it
// evaluates the OF term (which consumes b) before reusing sc1 for CF.
func (e *emitter) flagsArithImmB(old, b, res host.Reg, isSub bool) {
	// OF into sc3 first (consumes b).
	e.emit(host.Inst{Op: host.Xor, Rd: sc3, Rs1: old, Rs2: b})
	if !isSub {
		e.emit(host.Inst{Op: host.Xori, Rd: sc3, Rs1: sc3, Imm: -1})
	}
	e.emit(host.Inst{Op: host.Xor, Rd: host.RFlags, Rs1: old, Rs2: res})
	e.emit(host.Inst{Op: host.And, Rd: sc3, Rs1: sc3, Rs2: host.RFlags})
	e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: sc3, Imm: 31})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 11})
	// CF into sc1 (b no longer needed).
	if isSub {
		e.emit(host.Inst{Op: host.Sltu, Rd: sc1, Rs1: old, Rs2: res})
	} else {
		e.emit(host.Inst{Op: host.Sltu, Rd: sc1, Rs1: res, Rs2: old})
	}
	e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
	e.emit(host.Inst{Op: host.Sltiu, Rd: sc3, Rs1: res, Imm: 1})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 6})
	e.emit(host.Inst{Op: host.Or, Rd: sc1, Rs1: sc1, Rs2: sc3})
	e.emit(host.Inst{Op: host.Srli, Rd: sc3, Rs1: res, Imm: 31})
	e.emit(host.Inst{Op: host.Slli, Rd: sc3, Rs1: sc3, Imm: 7})
	e.emit(host.Inst{Op: host.Or, Rd: host.RFlags, Rs1: sc1, Rs2: sc3})
}

// emitLogic handles and/or/xor/test.
func (e *emitter) emitLogic(in *guest.Inst, matFlags bool) {
	var hop host.Op
	var hopi host.Op
	switch in.Op {
	case guest.OpAndRR, guest.OpAndRI, guest.OpTestRR:
		hop, hopi = host.And, host.Andi
	case guest.OpOrRR, guest.OpOrRI:
		hop, hopi = host.Or, host.Ori
	default:
		hop, hopi = host.Xor, host.Xori
	}
	isTest := in.Op == guest.OpTestRR
	immForm := in.Op == guest.OpAndRI || in.Op == guest.OpOrRI || in.Op == guest.OpXorRI
	dst := e.r(in.R1)
	res := dst
	if isTest {
		if !matFlags {
			return
		}
		res = sc0
	}
	if immForm {
		// Ori takes an unsigned 16-bit immediate in the host ISA; use
		// a materialized operand for large or negative immediates.
		imm := uint32(in.Imm)
		if hopi == host.Ori && imm > 0xffff {
			e.loadImm(sc1, imm)
			e.emit(host.Inst{Op: hop, Rd: res, Rs1: dst, Rs2: sc1})
		} else {
			e.emit(host.Inst{Op: hopi, Rd: res, Rs1: dst, Imm: in.Imm})
		}
	} else {
		e.emit(host.Inst{Op: hop, Rd: res, Rs1: dst, Rs2: e.r(in.R2)})
	}
	if matFlags {
		e.packSZ(res)
	}
}

// emitIBTC emits the inline IBTC probe for a guest target already in
// sc0 (r42). On a hit the probe jumps straight to the cached host
// entry; on a miss it exits to TOL. Both are exits of the translation.
func (e *emitter) emitIBTC(retired int, enabled bool) {
	if !enabled {
		// Ablation: every indirect branch transitions to TOL.
		e.exitStub(&ExitInfo{Reason: ExitIndirect, Retired: retired, Dynamic: true})
		return
	}
	miss := e.newLabel()
	e.emit(host.Inst{Op: host.Srli, Rd: sc1, Rs1: sc0, Imm: 2})
	e.emit(host.Inst{Op: host.Andi, Rd: sc1, Rs1: sc1, Imm: ibtcMask})
	e.emit(host.Inst{Op: host.Slli, Rd: sc1, Rs1: sc1, Imm: 3})
	e.loadImm(sc2, mem.IBTCBase)
	e.emit(host.Inst{Op: host.Add, Rd: sc1, Rs1: sc1, Rs2: sc2})
	e.emit(host.Inst{Op: host.Ld, Rd: sc2, Rs1: sc1}) // tag
	e.branch(host.Bne, sc2, sc0, miss)
	e.emit(host.Inst{Op: host.Ld, Rd: sc2, Rs1: sc1, Imm: 4}) // host entry
	idx := e.emit(host.Inst{Op: host.Jalr, Rd: host.RZero, Rs1: sc2})
	e.exits[idx] = &ExitInfo{Reason: ExitIBTCHit, Retired: retired, Dynamic: true}
	e.define(miss)
	e.exitStub(&ExitInfo{Reason: ExitIndirect, Retired: retired, Dynamic: true})
}

func log2u(v uint8) uint32 {
	n := uint32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
