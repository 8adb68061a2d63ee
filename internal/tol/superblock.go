package tol

import (
	"repro/internal/guest"
	"repro/internal/host"
)

// Superblock formation and optimization (SBM). A superblock is a
// single-entry, multiple-exit trace of hot basic blocks selected by the
// profile: starting from the block that crossed the promotion
// threshold, formation follows the hotter successor of each
// conditional branch until it meets an indirect branch, a call/return,
// a halt, a block already in the trace, or the size limits. A trace
// that returns to its own seed closes into a self-loop — the common
// shape of hot inner loops.
//
// The trace then passes through the optimizer:
//
//  1. copy and constant propagation with constant folding (including
//     folding flag results, so a known compare turns into a constant
//     flags load, and a known conditional side exit disappears),
//  2. dead code elimination (unused register writes and dead flag
//     definitions between side exits),
//  3. redundant load elimination with register allocation (repeated
//     loads of the same location are cached in the allocatable host
//     registers r46..r63 — the CSE of the memory pipeline),
//  4. list instruction scheduling on the emitted host code (sched.go).
type traceInst struct {
	in guest.Inst
	pc uint32

	sideExit   bool // mid-trace conditional branch
	traceTaken bool // direction the trace follows for side exits
	offTarget  uint32

	drop     bool // eliminated (folded, DCE'd, or a followed direct jump)
	constDst bool // emit as "dst = constVal" instead of the operation
	constVal uint32
	setFlags bool // emit a constant-flags load (flags result known)
	flagsVal uint32

	// Redundant-load-elimination annotations (set by the rle pass,
	// consumed by emission; see rle.go).
	rlKind rlAction
	rlReg  host.Reg
}

// traceEnd describes how a formed trace terminates.
type traceEnd uint8

const (
	endJump     traceEnd = iota // continue at endTarget via a direct jump
	endSelfLoop                 // jump back to the trace's own seed
	endTerminal                 // last instruction is a call/ret/indirect/halt
)

// tracePlan is a formed superblock before emission. Guest-stage passes
// transform insts; after emission and sealing, code carries the host
// instructions for host-stage passes (sched).
type tracePlan struct {
	seed      uint32
	insts     []traceInst
	end       traceEnd
	endTarget uint32 // for endJump
	blocks    int
	rp        *regPlan // the frontend's translation ABI (rle's alloc range)
	code      *emitter // set once host code is sealed
	fault     string   // active Config.Fault, consulted by faultable passes
}

// buildTrace forms the superblock trace starting at seed.
func (t *Translator) buildTrace(seed uint32) (*tracePlan, error) {
	plan := &tracePlan{seed: seed, rp: t.plan, fault: t.cfg.Fault}
	visited := map[uint32]bool{}
	cur := seed
	for {
		if plan.blocks >= t.cfg.MaxSBBlocks || len(plan.insts) >= t.cfg.MaxSBGuestInsts || visited[cur] {
			// Size limits reached, or the trace reached a block it
			// already contains (an inner loop that is not a self-loop):
			// end with a jump to the next block.
			plan.end = endJump
			plan.endTarget = cur
			return plan, nil
		}
		visited[cur] = true
		bb, err := t.decodeBB(cur)
		if err != nil {
			return nil, err
		}
		plan.blocks++
		term := bb.terminator()
		bodyEnd := len(bb.insts)
		if term != nil {
			bodyEnd--
		}
		for i := 0; i < bodyEnd; i++ {
			plan.insts = append(plan.insts, traceInst{in: bb.insts[i], pc: bb.pcs[i]})
		}
		if term == nil {
			// Length-capped basic block: fall through.
			plan.end = endJump
			plan.endTarget = bb.next
			return plan, nil
		}
		ti := traceInst{in: *term, pc: bb.pcs[len(bb.pcs)-1]}
		instEnd := bb.next
		switch term.Op {
		case guest.OpJmp:
			target, _ := branchTarget(term, instEnd)
			ti.drop = true // direct jump followed at translation time
			plan.insts = append(plan.insts, ti)
			if target == seed {
				plan.end = endSelfLoop
				return plan, nil
			}
			cur = target
		case guest.OpJcc, guest.OpBcc:
			target, _ := branchTarget(term, instEnd)
			// Follow the hotter successor per the profile.
			takenHotter := t.prof.Count(target) >= t.prof.Count(instEnd)
			ti.sideExit = true
			ti.traceTaken = takenHotter
			next := instEnd
			if takenHotter {
				next = target
				ti.offTarget = instEnd
			} else {
				ti.offTarget = target
			}
			plan.insts = append(plan.insts, ti)
			if next == seed {
				plan.end = endSelfLoop
				return plan, nil
			}
			cur = next
		default:
			// Call, return, indirect, halt: trace ends here with the
			// terminator emitted like a basic-block end.
			plan.insts = append(plan.insts, ti)
			plan.end = endTerminal
			return plan, nil
		}
	}
}

// constPropagate runs copy/constant propagation and folding,
// returning the instruction visits billed to the cost model and the
// number of instructions newly folded or dropped.
func constPropagate(p *tracePlan) (visits, eliminated int) {
	var isConst [guest.MaxGuestRegs]bool
	var constVal [guest.MaxGuestRegs]uint32
	// alias[r] = the register whose value r currently mirrors (copy
	// propagation); alias[r] == r when none.
	var alias [guest.MaxGuestRegs]guest.Reg
	for r := range alias {
		alias[r] = guest.Reg(r)
	}
	flagsKnown := false
	flagsVal := uint32(0)

	clobberReg := func(r guest.Reg) {
		isConst[r] = false
		alias[r] = r
		for i := range alias {
			if alias[i] == r && guest.Reg(i) != r {
				alias[i] = guest.Reg(i)
			}
		}
	}

	for i := range p.insts {
		ti := &p.insts[i]
		if ti.drop {
			continue
		}
		visits++
		wasConst, wasDrop := ti.constDst, ti.drop
		in := &ti.in

		// Copy propagation: rewrite pure-source register operands
		// through the alias map.
		switch in.Op {
		case guest.OpMovRR, guest.OpAddRR, guest.OpSubRR, guest.OpAndRR,
			guest.OpOrRR, guest.OpXorRR, guest.OpCmpRR, guest.OpTestRR,
			guest.OpImulRR, guest.OpDivRR, guest.OpCvtIF:
			in.R2 = alias[in.R2]
		}
		switch in.Op {
		case guest.OpLoad, guest.OpStore, guest.OpLea, guest.OpFLoad, guest.OpFStore:
			in.RB = alias[in.RB]
		case guest.OpLoadIdx, guest.OpStoreIdx:
			in.RB = alias[in.RB]
			in.RI = alias[in.RI]
		case guest.OpPushR, guest.OpJmpInd, guest.OpCallInd:
			in.R1 = alias[in.R1]
		}

		switch in.Op {
		case guest.OpMovRI:
			clobberReg(in.R1)
			isConst[in.R1] = true
			constVal[in.R1] = uint32(in.Imm)

		case guest.OpMovRR:
			src := in.R2
			if isConst[src] {
				v := constVal[src]
				clobberReg(in.R1)
				isConst[in.R1] = true
				constVal[in.R1] = v
				ti.constDst = true
				ti.constVal = v
			} else {
				clobberReg(in.R1)
				alias[in.R1] = src
			}

		case guest.OpAddRR, guest.OpSubRR, guest.OpAndRR, guest.OpOrRR,
			guest.OpXorRR, guest.OpCmpRR, guest.OpTestRR, guest.OpImulRR,
			guest.OpDivRR, guest.OpAddRI, guest.OpSubRI, guest.OpAndRI,
			guest.OpOrRI, guest.OpXorRI, guest.OpCmpRI, guest.OpIncR,
			guest.OpDecR, guest.OpNegR, guest.OpNotR, guest.OpShlRI,
			guest.OpShrRI, guest.OpSarRI:
			visits += foldALU(ti, &isConst, &constVal, &flagsKnown, &flagsVal, clobberReg)

		case guest.OpLea:
			if isConst[in.RB] {
				v := constVal[in.RB] + uint32(in.Imm)
				clobberReg(in.R1)
				isConst[in.R1] = true
				constVal[in.R1] = v
				ti.constDst = true
				ti.constVal = v
			} else {
				clobberReg(in.R1)
			}

		case guest.OpLoad, guest.OpLoadIdx, guest.OpPopR, guest.OpCvtFI:
			clobberReg(in.R1)
			if in.Op == guest.OpPopR {
				clobberReg(guest.ESP)
			}
		case guest.OpPushR:
			clobberReg(guest.ESP)
		case guest.OpAdd3, guest.OpSub3, guest.OpAnd3, guest.OpOr3,
			guest.OpXor3, guest.OpSll3, guest.OpSrl3, guest.OpSra3,
			guest.OpSlt3, guest.OpSltu3,
			guest.OpAddI3, guest.OpAndI3, guest.OpOrI3, guest.OpXorI3,
			guest.OpSllI3, guest.OpSrlI3, guest.OpSraI3,
			guest.OpSltI3, guest.OpSltuI3,
			guest.OpJal, guest.OpJalr:
			// RISC-family ops are not folded (flagless, three-operand);
			// their destination writes still invalidate tracked values.
			clobberReg(in.R1)
		case guest.OpFCmp:
			flagsKnown = false
		case guest.OpJcc:
			if ti.sideExit && flagsKnown {
				dir := in.Cond.Eval(flagsVal)
				if dir == ti.traceTaken {
					ti.drop = true
					ti.sideExit = false
				}
				// A constant branch against the trace direction would
				// always exit; keep it (the side exit fires on the
				// first execution and the trace tail is simply cold).
			}
		}

		if (ti.constDst && !wasConst) || (ti.drop && !wasDrop) {
			eliminated++
		}
	}
	return visits, eliminated
}

// foldALU folds one ALU instruction when its operands are constant.
func foldALU(ti *traceInst, isConst *[guest.MaxGuestRegs]bool, constVal *[guest.MaxGuestRegs]uint32,
	flagsKnown *bool, flagsVal *uint32, clobber func(guest.Reg)) int {
	in := &ti.in
	a := constVal[in.R1]
	aOK := isConst[in.R1]
	var b uint32
	bOK := false
	switch in.Op {
	case guest.OpAddRR, guest.OpSubRR, guest.OpAndRR, guest.OpOrRR,
		guest.OpXorRR, guest.OpCmpRR, guest.OpTestRR, guest.OpImulRR, guest.OpDivRR:
		b, bOK = constVal[in.R2], isConst[in.R2]
	case guest.OpIncR, guest.OpDecR, guest.OpNegR, guest.OpNotR:
		b, bOK = 0, true
	default: // immediate forms and shifts
		b, bOK = uint32(in.Imm), true
	}

	writesDst := in.Op != guest.OpCmpRR && in.Op != guest.OpCmpRI && in.Op != guest.OpTestRR
	needsOldFlags := in.Op == guest.OpIncR || in.Op == guest.OpDecR
	if !aOK || !bOK || (needsOldFlags && in.WritesFlags() && !*flagsKnown) {
		if writesDst {
			clobber(in.R1)
		}
		if in.WritesFlags() {
			*flagsKnown = false
		}
		return 0
	}

	res, fl, ok := guest.EvalALU(in.Op, a, b, *flagsVal)
	if !ok {
		if writesDst {
			clobber(in.R1)
		}
		if in.WritesFlags() {
			*flagsKnown = false
		}
		return 0
	}
	if in.WritesFlags() {
		*flagsKnown = true
		*flagsVal = fl & guest.FlagsMask
		ti.setFlags = true
		ti.flagsVal = fl & guest.FlagsMask
	}
	if writesDst {
		clobber(in.R1)
		isConst[in.R1] = true
		constVal[in.R1] = res
		ti.constDst = true
		ti.constVal = res
	} else if !in.WritesFlags() {
		ti.drop = true
	}
	return 1
}

// deadCodeEliminate removes register writes that are provably dead:
// overwritten before any read, with no memory side effect, no live flag
// definition, and no intervening exit (all guest registers are
// architecturally live at every exit). It returns the instruction
// visits billed to the cost model and the number of instructions
// dropped.
func deadCodeEliminate(p *tracePlan) (visits, eliminated int) {
	live := ^uint32(0) // bitmask over guest regs; all live at trace end
	mat := planFlagsLiveness(p)
	for i := len(p.insts) - 1; i >= 0; i-- {
		ti := &p.insts[i]
		if ti.drop {
			continue
		}
		visits++
		in := &ti.in
		if ti.sideExit || in.IsBranch() || in.Op == guest.OpHalt {
			live = ^uint32(0)
			continue
		}
		dst, pure := pureDest(in, ti)
		if pure && live&(1<<dst) == 0 && !mat[i] {
			ti.drop = true
			eliminated++
			continue
		}
		// Update liveness: kill the destination, then add sources.
		if pure {
			live &^= 1 << dst
		}
		for _, r := range readRegs(in, ti) {
			live |= 1 << r
		}
	}
	return visits, eliminated
}

// pureDest reports the destination register of an instruction with no
// other architectural effect than writing it (flags handled separately
// by the caller via the materialization mask).
func pureDest(in *guest.Inst, ti *traceInst) (uint8, bool) {
	if ti.constDst {
		return uint8(in.R1), true
	}
	switch in.Op {
	case guest.OpMovRR, guest.OpMovRI, guest.OpLea, guest.OpCvtFI,
		guest.OpAddRR, guest.OpSubRR, guest.OpAndRR, guest.OpOrRR,
		guest.OpXorRR, guest.OpImulRR, guest.OpDivRR,
		guest.OpAddRI, guest.OpSubRI, guest.OpAndRI, guest.OpOrRI,
		guest.OpXorRI, guest.OpIncR, guest.OpDecR, guest.OpNegR,
		guest.OpNotR, guest.OpShlRI, guest.OpShrRI, guest.OpSarRI:
		return uint8(in.R1), true
	case guest.OpLoad, guest.OpLoadIdx:
		// A load's memory read has no architectural side effect in this
		// machine (no faults are modeled), so it is pure.
		return uint8(in.R1), true
	case guest.OpAdd3, guest.OpSub3, guest.OpAnd3, guest.OpOr3,
		guest.OpXor3, guest.OpSll3, guest.OpSrl3, guest.OpSra3,
		guest.OpSlt3, guest.OpSltu3,
		guest.OpAddI3, guest.OpAndI3, guest.OpOrI3, guest.OpXorI3,
		guest.OpSllI3, guest.OpSrlI3, guest.OpSraI3,
		guest.OpSltI3, guest.OpSltuI3:
		return uint8(in.R1), true
	}
	return 0, false
}

// readRegs lists the integer registers an instruction reads.
func readRegs(in *guest.Inst, ti *traceInst) []guest.Reg {
	if ti.constDst {
		return nil // operands were folded away
	}
	switch in.Op {
	case guest.OpMovRR, guest.OpCvtIF:
		return []guest.Reg{in.R2}
	case guest.OpAddRR, guest.OpSubRR, guest.OpAndRR, guest.OpOrRR,
		guest.OpXorRR, guest.OpCmpRR, guest.OpTestRR, guest.OpImulRR, guest.OpDivRR:
		return []guest.Reg{in.R1, in.R2}
	case guest.OpAddRI, guest.OpSubRI, guest.OpAndRI, guest.OpOrRI,
		guest.OpXorRI, guest.OpCmpRI, guest.OpIncR, guest.OpDecR,
		guest.OpNegR, guest.OpNotR, guest.OpShlRI, guest.OpShrRI, guest.OpSarRI:
		return []guest.Reg{in.R1}
	case guest.OpLoad, guest.OpFLoad:
		return []guest.Reg{in.RB}
	case guest.OpStore, guest.OpFStore:
		return []guest.Reg{in.R1, in.RB}
	case guest.OpLoadIdx:
		return []guest.Reg{in.RB, in.RI}
	case guest.OpStoreIdx:
		return []guest.Reg{in.R1, in.RB, in.RI}
	case guest.OpPushR, guest.OpJmpInd, guest.OpCallInd:
		return []guest.Reg{in.R1, guest.ESP}
	case guest.OpPopR, guest.OpRet:
		return []guest.Reg{guest.ESP}
	case guest.OpCallRel:
		return []guest.Reg{guest.ESP}
	case guest.OpAdd3, guest.OpSub3, guest.OpAnd3, guest.OpOr3,
		guest.OpXor3, guest.OpSll3, guest.OpSrl3, guest.OpSra3,
		guest.OpSlt3, guest.OpSltu3:
		return []guest.Reg{in.R2, in.RB}
	case guest.OpAddI3, guest.OpAndI3, guest.OpOrI3, guest.OpXorI3,
		guest.OpSllI3, guest.OpSrlI3, guest.OpSraI3,
		guest.OpSltI3, guest.OpSltuI3:
		return []guest.Reg{in.R2}
	case guest.OpBcc:
		return []guest.Reg{in.R1, in.R2}
	case guest.OpJalr:
		return []guest.Reg{in.R2}
	}
	return nil
}

// planFlagsLiveness computes per-instruction flag materialization needs
// over the (possibly partially dropped) trace.
func planFlagsLiveness(p *tracePlan) []bool {
	mat := make([]bool, len(p.insts))
	for i := range p.insts {
		ti := &p.insts[i]
		if ti.drop || (!ti.in.WritesFlags() && !ti.setFlags) {
			continue
		}
		mat[i] = true
		for j := i + 1; j < len(p.insts); j++ {
			tj := &p.insts[j]
			if tj.drop {
				continue
			}
			if tj.in.ReadsFlags() || tj.sideExit {
				break
			}
			if tj.in.WritesFlags() || tj.setFlags {
				mat[i] = false
				break
			}
		}
	}
	return mat
}

// slotKey identifies a memory location for redundant-load elimination.
type slotKey struct {
	base guest.Reg
	disp int32
}

// BuildSuperblock forms, optimizes, and places a superblock seeded at
// guest address seed. Optimization runs the translator's configured
// pass pipeline: guest-stage passes transform the trace plan before
// emission, host-stage passes transform the sealed host code, and
// every pass contributes a PassReport to LastWork for the per-pass
// cost attribution.
func (t *Translator) BuildSuperblock(seed uint32) (*Translation, error) {
	e := t.begin()
	plan, err := t.buildTrace(seed)
	if err != nil {
		return nil, err
	}

	reports := make([]PassReport, 0, len(t.pipeline))
	for _, p := range t.pipeline {
		if p.Stage() == StageGuest {
			reports = append(reports, p.Run(plan))
		}
	}

	tr := &Translation{Kind: KindSB, GuestEntry: seed}

	mat := planFlagsLiveness(plan)

	type sideStub struct {
		l    label
		info *ExitInfo
	}
	var stubs []sideStub
	retired := 0

	// rlFilled tracks which rle cache registers actually hold their
	// slot value at the current emission point. Under the default
	// pipeline every rlUseLoad follows its rlAllocLoad, but a pass
	// ordered after rle (e.g. "rle,dce") may drop the filling load —
	// in that case the fill is materialized at the first surviving use.
	var rlFilled [host.NumRegs]bool

	for i := range plan.insts {
		ti := &plan.insts[i]
		in := &ti.in
		retired++
		tr.GuestPCs = append(tr.GuestPCs, ti.pc)
		if ti.drop {
			if ti.setFlags {
				if mat[i] {
					e.loadImm(host.RFlags, ti.flagsVal)
				}
			}
			continue
		}

		switch {
		case ti.sideExit:
			l := e.newLabel()
			if in.Op == guest.OpBcc {
				e.cmpBranch(in.Cond, in.R1, in.R2, !ti.traceTaken, l)
			} else {
				e.condBranch(in.Cond, !ti.traceTaken, l)
			}
			stubs = append(stubs, sideStub{l, &ExitInfo{
				Reason:      exitReasonForDir(!ti.traceTaken),
				Retired:     retired,
				GuestTarget: ti.offTarget,
			}})

		case ti.constDst:
			e.loadImm(e.r(in.R1), ti.constVal)
			if ti.setFlags && mat[i] {
				e.loadImm(host.RFlags, ti.flagsVal)
			}

		case ti.setFlags && mat[i] && !writesDest(in):
			// Compare/test with known flags: just set the flags.
			e.loadImm(host.RFlags, ti.flagsVal)

		case in.Op == guest.OpLoad:
			switch ti.rlKind {
			case rlUseLoad:
				if !rlFilled[ti.rlReg] {
					// The filling load was dropped by a later pass:
					// rle's own invalidation guarantees neither the base
					// register nor the slot changed since, so loading
					// here is equivalent.
					e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: host.RMemBase, Rs2: e.r(in.RB)})
					e.emit(host.Inst{Op: host.Ld, Rd: ti.rlReg, Rs1: sc0, Imm: in.Imm})
					rlFilled[ti.rlReg] = true
				}
				e.mov(e.r(in.R1), ti.rlReg)
			case rlAllocLoad:
				e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: host.RMemBase, Rs2: e.r(in.RB)})
				e.emit(host.Inst{Op: host.Ld, Rd: ti.rlReg, Rs1: sc0, Imm: in.Imm})
				e.mov(e.r(in.R1), ti.rlReg)
				rlFilled[ti.rlReg] = true
			default:
				e.emitGuestInst(in, false)
			}

		case in.Op == guest.OpStore:
			if ti.rlKind == rlStoreThrough {
				// Exact-slot store: keep the register cache coherent
				// (and filled — the stored value is the slot value).
				e.mov(ti.rlReg, e.r(in.R1))
				rlFilled[ti.rlReg] = true
			}
			e.emitGuestInst(in, false)

		default:
			if ti.in.EndsBlock() {
				// Final terminator: handled below.
				break
			}
			e.emitGuestInst(in, mat[i] && !ti.setFlags)
			if ti.setFlags && mat[i] {
				e.loadImm(host.RFlags, ti.flagsVal)
			}
		}
	}

	// Final terminator / trace end.
	stubStart := len(e.code)
	switch plan.end {
	case endTerminal:
		last := &plan.insts[len(plan.insts)-1]
		fakeBB := &decodedBB{
			entry: plan.seed,
			insts: []guest.Inst{last.in},
			pcs:   []uint32{last.pc},
			term:  0,
			next:  last.pc + uint32(last.in.Size),
		}
		// emitTerminator stamps the passed retired count on the exits
		// it creates (ExitHalt subtracts the halt itself).
		if s := t.emitTerminator(e, fakeBB, retired); s >= 0 {
			stubStart = s
		} else {
			stubStart = len(e.code)
		}
	case endSelfLoop:
		e.exitStub(&ExitInfo{Reason: ExitSelfLoop, Retired: retired, GuestTarget: plan.seed})
	default: // endJump
		e.exitStub(&ExitInfo{Reason: ExitTaken, Retired: retired, GuestTarget: plan.endTarget})
	}

	tr.GuestLen = len(plan.insts)
	for _, s := range stubs {
		e.define(s.l)
		e.exitStub(s.info)
	}

	// Allocate first (a bounded cache may evict here), then seal the
	// exit stubs against the actual placement address.
	base, err := t.cc.Alloc(len(e.code))
	if err != nil {
		return nil, err
	}
	if err := e.seal(base); err != nil {
		return nil, err
	}

	// Host-stage passes (instruction scheduling) on the sealed code.
	// Scheduling preserves branch positions and code length, so exit
	// indices and the allocation both remain valid.
	plan.code = e
	for _, p := range t.pipeline {
		if p.Stage() == StageHost {
			reports = append(reports, p.Run(plan))
		}
	}

	t.cc.PlaceAt(base, tr, e.code, 0, stubStart, e.exits)
	t.LastWork.TableProbes = append(t.LastWork.TableProbes, t.tt.Insert(seed, tr.HostEntry)...)
	t.LastWork.GuestInsts = len(plan.insts)
	t.LastWork.HostEmitted = len(e.code)
	t.LastWork.Passes = reports
	for _, r := range reports {
		t.LastWork.OptPassInsts += r.Visits
	}
	return tr, nil
}

func exitReasonForDir(taken bool) ExitReason {
	if taken {
		return ExitTaken
	}
	return ExitFallthrough
}

func writesDest(in *guest.Inst) bool {
	switch in.Op {
	case guest.OpCmpRR, guest.OpCmpRI, guest.OpTestRR, guest.OpFCmp:
		return false
	}
	return true
}
