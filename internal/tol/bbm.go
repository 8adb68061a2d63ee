package tol

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/mem"
)

// maxBBInsts caps the length of a decoded basic block.
const maxBBInsts = 128

// decodedBB is a guest basic block: straight-line instructions ending
// with an optional control-flow terminator.
type decodedBB struct {
	entry uint32
	insts []guest.Inst // includes the terminator when present
	pcs   []uint32     // guest PC of each instruction
	// term is the index of the terminating control-flow instruction in
	// insts, or -1 when the block was cut by the length cap.
	term int
	next uint32 // guest address following the block (fallthrough)
}

// terminator returns the block's control-flow instruction, or nil.
func (b *decodedBB) terminator() *guest.Inst {
	if b.term < 0 {
		return nil
	}
	return &b.insts[b.term]
}

// Translator builds BBM translations and (via superblock.go) SBM
// superblocks. It reads guest code through the co-design component's
// decode cache, so a block the interpreter already executed — and every
// retranslation of an evicted block — is decoded once, not again per
// translation. The SBM optimizer is the translator's resolved pass
// pipeline; the promotion policy supplies the threshold compiled into
// each BBM block's profiling instrumentation.
type Translator struct {
	cfg      *Config
	plan     *regPlan
	pipeline []Pass
	policy   PromotionPolicy
	cc       *CodeCache
	tt       *TransTable
	prof     *ProfileTable
	dec      *guest.DecodeCache
	guest    mem.Memory // guest address space view (window-adapted)

	// Per-translation scratch, reused across translations: the decoded
	// block, the host-code emitter, and LastWork.TableProbes' backing
	// array. Nothing placed in the code cache aliases them (PlaceAt
	// copies the code and the exit map; a BB's GuestPCs are copied out).
	bb decodedBB
	em *emitter

	// Work accounting for the cost model (reset per operation).
	LastWork Work
}

// Work quantifies the effort of the last translation/optimization, in
// units the cost model converts into host-instruction streams.
type Work struct {
	GuestInsts   int          // guest instructions processed
	HostEmitted  int          // host instructions produced
	OptPassInsts int          // total IR visits (sum of Passes[i].Visits)
	Passes       []PassReport // per-pass reports, pipeline order
	TableProbes  []uint32     // translation-table slots touched
}

// NewTranslator wires a translator to the TOL services for one guest
// frontend, resolving the configured optimization pipeline and the
// frontend's translation ABI. The promotion policy instance is shared
// with the engine so stateful policies see every promotion, and the
// decode cache with its interpreter.
func NewTranslator(cfg *Config, isa *guest.ISA, policy PromotionPolicy, cc *CodeCache, tt *TransTable, prof *ProfileTable, dec *guest.DecodeCache, g mem.Memory) (*Translator, error) {
	pipeline, err := cfg.Pipeline()
	if err != nil {
		return nil, err
	}
	plan, err := planFor(isa)
	if err != nil {
		return nil, err
	}
	return &Translator{cfg: cfg, plan: plan, pipeline: pipeline,
		policy: policy, cc: cc, tt: tt, prof: prof, dec: dec, guest: g,
		em: newEmitter(plan)}, nil
}

// begin resets the per-translation scratch and returns the emitter.
func (t *Translator) begin() *emitter {
	t.LastWork = Work{TableProbes: t.LastWork.TableProbes[:0]}
	t.em.reset()
	return t.em
}

// decodeBB decodes the basic block starting at guest address entry
// into the translator's scratch block, valid until the next decodeBB.
func (t *Translator) decodeBB(entry uint32) (*decodedBB, error) {
	bb := &t.bb
	*bb = decodedBB{entry: entry, term: -1, insts: bb.insts[:0], pcs: bb.pcs[:0]}
	pc := entry
	for len(bb.insts) < maxBBInsts {
		in, err := t.dec.Decode(pc, t.guest)
		if err != nil {
			return nil, fmt.Errorf("tol: decode at %#x: %w", pc, err)
		}
		bb.insts = append(bb.insts, in)
		bb.pcs = append(bb.pcs, pc)
		pc += uint32(in.Size)
		if in.EndsBlock() {
			bb.term = len(bb.insts) - 1
			break
		}
	}
	bb.next = pc
	return bb, nil
}

// branchTargets returns the taken target (for direct branches) of a
// block terminator. ok is false for indirect terminators.
func branchTarget(in *guest.Inst, instEnd uint32) (uint32, bool) {
	switch in.Op {
	case guest.OpJmp, guest.OpJcc, guest.OpCallRel, guest.OpBcc, guest.OpJal:
		return instEnd + uint32(in.Imm), true
	}
	return 0, false
}

// TranslateBB translates the basic block at guest address entry,
// places it in the code cache and registers it in the translation
// table. Returns the placed translation.
func (t *Translator) TranslateBB(entry uint32) (*Translation, error) {
	e := t.begin()
	bb, err := t.decodeBB(entry)
	if err != nil {
		return nil, err
	}

	tr := &Translation{
		Kind:       KindBB,
		GuestEntry: entry,
		GuestLen:   len(bb.insts),
		GuestPCs:   append([]uint32(nil), bb.pcs...),
	}

	// Prologue: profiling instrumentation (counter increment plus, when
	// SBM is enabled, the promotion-threshold check).
	tr.ProfSlot = t.prof.SlotAddr(entry)
	e.loadImm(sc0, tr.ProfSlot)
	e.emit(host.Inst{Op: host.Ld, Rd: sc1, Rs1: sc0})
	e.emit(host.Inst{Op: host.Addi, Rd: sc1, Rs1: sc1, Imm: 1})
	e.emit(host.Inst{Op: host.St, Rs1: sc0, Rs2: sc1})
	if t.cfg.EnableSBM {
		e.loadImm(sc2, t.policy.SBThreshold(entry))
		e.emit(host.Inst{Op: host.Blt, Rs1: sc1, Rs2: sc2, Imm: host.InstBytes}) // skip the exit
		e.exitStub(&ExitInfo{Reason: ExitPromote, Retired: 0, GuestTarget: entry})
	}
	bodyStart := len(e.code)

	// Body.
	mat := flagsLiveness(bb.insts)
	bodyEnd := len(bb.insts)
	if bb.term >= 0 {
		bodyEnd = bb.term
	}
	for i := 0; i < bodyEnd; i++ {
		if t.cfg.Fault == FaultDropInc && bb.insts[i].Op == guest.OpIncR {
			continue // injected bug (mutation testing): lose the inc
		}
		e.emitGuestInst(&bb.insts[i], mat[i])
	}

	// Terminator.
	n := len(bb.insts)
	stubStart := t.emitTerminator(e, bb, n)
	if stubStart < 0 {
		stubStart = len(e.code)
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
	t.cc.PlaceAt(base, tr, e.code, bodyStart, stubStart, e.exits)
	t.LastWork.TableProbes = append(t.LastWork.TableProbes, t.tt.Insert(entry, tr.HostEntry)...)
	t.LastWork.GuestInsts = len(bb.insts)
	t.LastWork.HostEmitted = len(e.code)
	return tr, nil
}

// emitTerminator emits the control-flow tail of a block: condition
// tests, pushes for calls, the IBTC probe for indirect branches, and
// the exit stubs. retired is the number of guest instructions retired
// when leaving the block. It returns the code index where the stub
// region starts, or -1 to use the current end of code.
func (t *Translator) emitTerminator(e *emitter, bb *decodedBB, retired int) int {
	term := bb.terminator()
	if term == nil {
		// Length-capped block: fall through to the next guest address.
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitFallthrough, Retired: retired, GuestTarget: bb.next})
		return s
	}
	instEnd := bb.next // address after the terminator

	switch term.Op {
	case guest.OpHalt:
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitHalt, Retired: retired - 1, GuestTarget: bb.pcs[bb.term]})
		return s

	case guest.OpJmp:
		target, _ := branchTarget(term, instEnd)
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitTaken, Retired: retired, GuestTarget: target})
		return s

	case guest.OpJcc:
		target, _ := branchTarget(term, instEnd)
		takenL := e.newLabel()
		e.condBranch(term.Cond, true, takenL)
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitFallthrough, Retired: retired, GuestTarget: instEnd})
		e.define(takenL)
		e.exitStub(&ExitInfo{Reason: ExitTaken, Retired: retired, GuestTarget: target})
		return s

	case guest.OpBcc:
		// Flagless compare-and-branch: one host branch over the pinned
		// registers replaces the condTest sequence.
		target, _ := branchTarget(term, instEnd)
		takenL := e.newLabel()
		e.cmpBranch(term.Cond, term.R1, term.R2, true, takenL)
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitFallthrough, Retired: retired, GuestTarget: instEnd})
		e.define(takenL)
		e.exitStub(&ExitInfo{Reason: ExitTaken, Retired: retired, GuestTarget: target})
		return s

	case guest.OpJal:
		target, _ := branchTarget(term, instEnd)
		if e.r(term.R1) != host.RZero {
			e.loadImm(e.r(term.R1), instEnd) // link register
		}
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitTaken, Retired: retired, GuestTarget: target})
		return s

	case guest.OpJalr:
		// Target into sc0 per the indirect-exit ABI, computed before
		// the link write so jalr rd==rs1 reads the pre-link value.
		e.emit(host.Inst{Op: host.Addi, Rd: sc0, Rs1: e.r(term.R2), Imm: term.Imm})
		e.emit(host.Inst{Op: host.Andi, Rd: sc0, Rs1: sc0, Imm: -2})
		if e.r(term.R1) != host.RZero {
			e.loadImm(e.r(term.R1), instEnd)
		}
		e.emitIBTC(retired, t.cfg.EnableIBTC)
		return -1

	case guest.OpCallRel:
		target, _ := branchTarget(term, instEnd)
		t.emitPush(e, instEnd)
		s := len(e.code)
		e.exitStub(&ExitInfo{Reason: ExitTaken, Retired: retired, GuestTarget: target})
		return s

	case guest.OpCallInd:
		// Read the target before pushing (the target register may be ESP).
		e.mov(sc3, e.r(term.R1))
		t.emitPush(e, instEnd)
		e.mov(sc0, sc3)
		e.emitIBTC(retired, t.cfg.EnableIBTC)
		return -1

	case guest.OpJmpInd:
		e.mov(sc0, e.r(term.R1))
		e.emitIBTC(retired, t.cfg.EnableIBTC)
		return -1

	case guest.OpRet:
		e.emit(host.Inst{Op: host.Add, Rd: sc1, Rs1: host.RMemBase, Rs2: e.r(guest.ESP)})
		e.emit(host.Inst{Op: host.Ld, Rd: sc0, Rs1: sc1})
		e.emit(host.Inst{Op: host.Addi, Rd: e.r(guest.ESP), Rs1: e.r(guest.ESP), Imm: 4})
		e.emitIBTC(retired, t.cfg.EnableIBTC)
		return -1
	}
	panic(fmt.Sprintf("tol: unexpected terminator %s", term.Op))
}

// emitPush emits a push of a constant (the return address of a call).
func (t *Translator) emitPush(e *emitter, value uint32) {
	e.loadImm(sc1, value)
	e.emit(host.Inst{Op: host.Addi, Rd: e.r(guest.ESP), Rs1: e.r(guest.ESP), Imm: -4})
	e.emit(host.Inst{Op: host.Add, Rd: sc0, Rs1: host.RMemBase, Rs2: e.r(guest.ESP)})
	e.emit(host.Inst{Op: host.St, Rs1: sc0, Rs2: sc1})
}
