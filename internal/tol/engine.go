package tol

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/emu"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/timing"
)

// Engine is the co-design component: the host CPU, the TOL services,
// and the cost model, driven as a pull-based dynamic instruction
// stream (timing.BatchSource). Interleaved with the functional
// execution it emits every host instruction — translated application
// code executed by the CPU, and TOL activity rendered by the cost
// model — tagged with owner and component.
//
// When cosim is enabled an authoritative guest emulator (the reference
// emulator for the program's frontend) runs in lockstep; architectural
// state is compared at every interpreted instruction and at every
// translation exit, implementing the infrastructure's state-checking
// methodology.
type Engine struct {
	Cfg Config

	// isa is the guest frontend the program declares; plan the
	// frontend's translation ABI. Both are resolved at construction and
	// immutable for the engine's lifetime.
	isa  *guest.ISA
	plan *regPlan

	hostMem *mem.Sparse
	cpu     *host.CPU
	guestV  mem.GuestView

	// guestMem is guestV pre-converted to the mem.Memory interface.
	// guestV is a two-word struct, so converting it at every
	// interpreter step would heap-allocate; the conversion is hoisted
	// here once instead (the interpreter loop must stay allocation-free
	// per step).
	guestMem mem.Memory

	CC    *CodeCache
	tt    *transTable
	ib    *ibtc
	prof  *profileTable
	trans *translator

	cost  *costEmitter
	queue dynQueue

	// dec memoizes guest fetch+decode per EIP so IM revisits of a
	// basic block skip re-decoding (guest code is immutable).
	dec *guest.DecodeCache

	gs           guest.State // canonical guest state while in IM
	inTranslated bool
	curTrans     *Translation
	halted       bool
	err          error

	// ctx, when non-nil, is polled every ctxPollSteps units of forward
	// progress (interpreted steps / translated bursts), so even an
	// interpreter-dominated run with no timing simulator attached
	// honors cancellation. A cancellation surfaces as the run error
	// (errors.Is-compatible with the context's error) and ends the
	// stream.
	ctx       context.Context
	ctxPollIn int

	shadow   *emu.Emulator
	promoted map[uint32]*Translation
	policy   PromotionPolicy

	// evicted remembers guest entries whose translation was evicted at
	// least once, so rebuilding one counts as a retranslation.
	evicted map[uint32]bool

	// stopAfter, when nonzero, pauses the stream once the co-design
	// component has retired at least stopAfter guest instructions: the
	// already-generated stream drains and then Next/NextBatch report
	// stream end with paused set, leaving the engine at a consistent
	// generation boundary. SetStopAfter with a higher bound (or zero)
	// un-pauses. Checkpoint fast-forward and interval-bounded sampled
	// runs are built on this.
	stopAfter uint64
	paused    bool

	// countOnly makes translated execution reserve its instructions'
	// queue slots without writing them: Drain's setting for runs whose
	// stream nobody reads, which discards the slots unread. Bursts,
	// the TOL's own cost bursts included, are as in a delivered stream,
	// so the engine's state is too.
	countOnly bool

	Stats Stats
}

// queueDrainThreshold bounds how much stream the engine buffers before
// letting the timing simulator drain it.
const queueDrainThreshold = 4096

// ctxPollSteps is how many units of engine forward progress (IM steps
// or translated-execution bursts) pass between context polls. One unit
// emits tens to thousands of stream instructions, so cancellation is
// observed within microseconds of host time without a poll in the
// per-instruction loops.
const ctxPollSteps = 1024

// NewEngine builds the co-design component for a guest program. An
// invalid configuration (unknown pass or promotion-policy names, bad
// bounds — see Config.Validate) or an unsupported program surfaces as
// an immediate run error: the engine produces no stream and Err
// reports the problem. A failed engine is still inspectable — its
// CC and its lookup structures are empty, never nil.
func NewEngine(cfg Config, p *guest.Program) *Engine {
	hm := mem.NewSparse()
	p.LoadIntoWindow(hm)
	e := &Engine{
		Cfg:     cfg,
		hostMem: hm,
		cpu:     host.NewCPU(hm),
		guestV:  mem.GuestView{Host: hm},
		tt:      newTransTable(),
		ib:      newIBTC(hm),
		prof:    newProfileTable(hm),

		promoted: make(map[uint32]*Translation),
	}
	e.guestMem = e.guestV
	if err := e.wire(p); err != nil {
		e.err = err
		e.CC = newCodeCache()
	}
	return e
}

// wire resolves the configuration and the program's frontend and
// builds everything that depends on them. The code cache is built
// once, after every check that can fail.
func (e *Engine) wire(p *guest.Program) error {
	if err := e.Cfg.Validate(); err != nil {
		return err
	}
	isa, err := guest.ISAOf(p)
	if err != nil {
		return fmt.Errorf("tol: %v", err)
	}
	plan, err := planFor(isa)
	if err != nil {
		return err
	}
	e.isa, e.plan = isa, plan
	e.dec = guest.NewDecodeCache(isa)
	if e.Cfg.Cache.CapacityInsts > 0 {
		evp, _ := e.Cfg.Cache.NewEvictionPolicy() // validated above
		e.CC = newBoundedCodeCache(e.Cfg.Cache, evp)
	} else {
		e.CC = newCodeCache()
	}
	e.CC.link(e.tt, e.ib)
	e.CC.OnEvict = e.onEvict
	e.policy, _ = e.Cfg.NewPromotionPolicy() // validated above
	e.trans, _ = newTranslator(&e.Cfg, e.isa, e.policy, e.CC, e.tt, e.prof, e.dec, e.guestMem)
	e.cost = newCostEmitter(&e.queue)
	e.isa.InitState(&e.gs, p.Entry)
	if e.Cfg.Cosim {
		e.shadow = emu.New(p)
	}
	e.cost.Init()
	return nil
}

// Err returns the first execution error, if any.
func (e *Engine) Err() error { return e.err }

// Halted reports whether the guest program reached its halt.
func (e *Engine) Halted() bool { return e.halted }

// GuestState returns the current guest architectural state (only
// meaningful once halted or while in IM).
func (e *Engine) GuestState() *guest.State { return &e.gs }

// SetStopAfter arms (or, with 0, disarms) the guest-instruction pause
// bound. The engine pauses at the first generation boundary at or
// beyond n retired guest instructions — not exactly at n, since
// translated execution retires in bursts — which keeps the boundary
// deterministic for a given program and configuration.
func (e *Engine) SetStopAfter(n uint64) {
	e.stopAfter = n
	e.paused = false
}

// Paused reports whether the stream ended because the SetStopAfter
// bound was reached (rather than guest halt or an error).
func (e *Engine) Paused() bool { return e.paused }

// stopDue reports whether the pause bound is armed and reached.
func (e *Engine) stopDue() bool {
	return e.stopAfter != 0 && e.Stats.DynTotal() >= e.stopAfter
}

// Next delivers one stream instruction: the item-wise reference the
// stream-equality tests compare NextBatch against.
func (e *Engine) Next(d *timing.DynInst) bool {
	for {
		if e.queue.pop(d) {
			return true
		}
		if e.halted || e.err != nil {
			return false
		}
		if e.stopDue() {
			e.paused = true
			return false
		}
		e.generate()
	}
}

// NextBatch implements timing.BatchSource: it moves queued stream
// instructions into buf wholesale, generating more only when the
// queue runs dry. One call replaces up to len(buf) per-instruction
// interface calls, which is the transport half of the batched
// simulate path.
func (e *Engine) NextBatch(buf []timing.DynInst) int {
	for {
		if n := e.queue.popBatch(buf); n > 0 {
			return n
		}
		if e.halted || e.err != nil {
			return 0
		}
		if e.stopDue() {
			e.paused = true
			return 0
		}
		e.generate()
	}
}

// generate advances the co-design component by one unit of forward
// progress (an interpreted step or a translated-execution burst),
// polling the attached context every ctxPollSteps units.
func (e *Engine) generate() {
	if e.ctx != nil {
		if e.ctxPollIn--; e.ctxPollIn <= 0 {
			e.ctxPollIn = ctxPollSteps
			if err := e.ctx.Err(); err != nil {
				e.cancelErr(err)
				return
			}
		}
	}
	if e.inTranslated {
		e.runTranslated()
	} else {
		e.stepIM()
	}
}

// SetContext attaches a context the engine polls while generating the
// stream; cancelling it aborts the run with the context's error. The
// controller installs the Run context here so interpreter-dominated
// runs (e.g. -O0 with everything below the translation threshold) are
// as promptly cancellable as timing-bound ones.
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx = ctx
	e.ctxPollIn = 1 // poll on the first generate after attach
}

// Drain runs the engine to the end of its stream (a pause, the halt or
// an error) as a NextBatch loop that discards every batch would, and
// returns the number of instructions that loop would have received.
// Translated execution only reserves its instructions' places in the
// stream, so the bulk of the stream is never written; everything else,
// the TOL's cost bursts and the engine state included, is as in that
// loop.
func (e *Engine) Drain() uint64 {
	e.countOnly = true
	var n uint64
	for {
		n += uint64(e.queue.discard())
		if e.halted || e.err != nil {
			break
		}
		if e.stopDue() {
			e.paused = true
			break
		}
		e.generate()
	}
	e.countOnly = false
	return n
}

// Run drives the engine to completion without a timing simulator,
// discarding the stream. Useful for functional tests.
func (e *Engine) Run() error {
	return e.RunContext(context.Background())
}

// RunContext is Run honoring cancellation: the context is polled
// between generation units even though no timing simulator is
// attached, so a guest stuck in an interpreter loop cannot outlive
// its caller.
func (e *Engine) RunContext(ctx context.Context) error {
	e.SetContext(ctx)
	e.Drain()
	return e.err
}

func (e *Engine) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// cancelErr records a context cancellation as the run error, keeping
// the original error value so errors.Is(err, context.Canceled) holds
// for callers.
func (e *Engine) cancelErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

// stateFromCPU reconstructs the guest architectural state from the
// application half of the host register file, per the frontend's
// translation ABI.
func (e *Engine) stateFromCPU(eip uint32) guest.State {
	var s guest.State
	for i := 0; i < e.isa.NumRegs; i++ {
		s.Regs[i] = e.cpu.R[e.plan.reg[i]]
	}
	s.Flags = e.cpu.R[host.RFlags]
	for i := 0; i < guest.NumFRegs; i++ {
		s.FRegs[i] = e.cpu.F[host.GuestFReg(uint8(i))]
	}
	s.EIP = eip
	return s
}

// syncCPUFromState loads the guest state into the host registers per
// the translation ABI.
func (e *Engine) syncCPUFromState() {
	for i := 0; i < e.isa.NumRegs; i++ {
		if e.plan.reg[i] == host.RZero {
			continue // the hardwired zero is not written (rv32 x0)
		}
		e.cpu.R[e.plan.reg[i]] = e.gs.Regs[i]
	}
	e.cpu.R[host.RFlags] = e.gs.Flags & guest.FlagsMask
	for i := 0; i < guest.NumFRegs; i++ {
		e.cpu.F[host.GuestFReg(uint8(i))] = e.gs.FRegs[i]
	}
}

// stepIM interprets one guest instruction.
func (e *Engine) stepIM() {
	if e.Cfg.MaxGuestInsts != 0 && e.Stats.DynTotal() >= e.Cfg.MaxGuestInsts {
		e.fail("tol: guest instruction budget (%d) exhausted at eip=%#x", e.Cfg.MaxGuestInsts, e.gs.EIP)
		return
	}
	eip := e.gs.EIP
	var res guest.StepResult
	if err := e.dec.Step(&e.gs, e.guestMem, &res); err != nil {
		e.fail("tol: interpreter: %v", err)
		return
	}
	if res.Halted {
		e.halted = true
		return
	}
	e.Stats.DynIM++
	e.Stats.markStatic(eip, ModeIM)
	e.cost.InterpStep(&res, eip)
	if res.Inst.IsIndirectBranch() {
		e.Stats.IndirectDyn++
	}

	if e.shadow != nil {
		if _, err := e.shadow.Step(); err != nil {
			e.fail("tol: shadow emulator: %v", err)
			return
		}
		e.Stats.CosimChecks++
		if d := e.gs.Diff(&e.shadow.State); d != "" {
			if e.err == nil {
				e.err = e.newDivergence("IM", eip, &e.gs)
			}
			return
		}
	}

	if !res.Taken {
		return
	}
	e.Stats.InterpBranches++
	target := res.Target

	// Profile the branch target and check for an existing translation.
	cnt := e.prof.Bump(target)
	entry, ok, probes := e.tt.Lookup(target)
	e.Stats.Lookups++
	e.Stats.LookupProbes += uint64(len(probes))
	e.cost.IMProfile(e.prof.SlotAddr(target), probes[0])
	e.cost.Lookup(probes, ok)
	if ok {
		e.enterTranslated(entry)
		return
	}
	if e.policy.ShouldTranslate(target, cnt) {
		tr := e.translateBB(target)
		if tr != nil {
			e.enterTranslated(tr.HostEntry)
		}
	}
}

// onEvict observes one code-cache eviction batch: it maintains the
// pressure statistics, forgets evicted superblocks so promotion can
// rebuild them, and bills the unlink work through the cost model.
func (e *Engine) onEvict(ev EvictEvent) {
	e.Stats.Evictions += uint64(len(ev.Victims))
	if ev.Flush {
		e.Stats.FlushCount++
	}
	if e.evicted == nil {
		e.evicted = make(map[uint32]bool)
	}
	for _, tr := range ev.Victims {
		e.evicted[tr.GuestEntry] = true
		if tr.Kind == KindSB {
			delete(e.promoted, tr.GuestEntry)
		}
	}
	e.cost.Evict(ev.Victims, ev.RestoredPCs)
}

// translateBB runs the BBM translator for the block at guest address
// g. A block whose translation exceeds the whole bounded cache is not
// fatal: it stays interpreted and its profile counter is reset so TOL
// backs off before trying again.
func (e *Engine) translateBB(g uint32) *Translation {
	wasEvicted := e.evicted[g]
	tr, err := e.trans.TranslateBB(g)
	if err != nil {
		if errors.Is(err, errTranslationTooLarge) {
			e.prof.Reset(g)
			return nil
		}
		e.fail("tol: bbm: %v", err)
		return nil
	}
	e.Stats.BBTranslated++
	if wasEvicted {
		e.Stats.Retranslations++
	}
	if e.CC.Bounded() {
		e.Stats.CacheOccupancyPeak = e.CC.OccupancyPeak()
	}
	for _, pc := range tr.GuestPCs {
		e.Stats.markStatic(pc, ModeBBM)
	}
	e.cost.BBMTranslate(tr, &e.trans.LastWork)
	return tr
}

// buildSB runs the SBM optimizer seeded at guest address g. A
// superblock larger than the whole bounded cache is not fatal: it
// returns nil without setting the run error, and handlePromote keeps
// executing the BBM block (like the SBM-disabled path).
func (e *Engine) buildSB(g uint32) *Translation {
	wasEvicted := e.evicted[g]
	tr, err := e.trans.BuildSuperblock(g)
	if err != nil {
		if !errors.Is(err, errTranslationTooLarge) {
			e.fail("tol: sbm: %v", err)
		}
		return nil
	}
	e.Stats.SBCreated++
	if wasEvicted {
		e.Stats.Retranslations++
	}
	if e.CC.Bounded() {
		e.Stats.CacheOccupancyPeak = e.CC.OccupancyPeak()
	}
	for _, pc := range tr.GuestPCs {
		e.Stats.markStatic(pc, ModeSBM)
	}
	cost := e.cost.SBMOptimize(tr, &e.trans.LastWork)
	e.Stats.addSBMPasses(e.trans.LastWork.Passes, cost)
	e.policy.OnSuperblock(g)
	return tr
}

// enterTranslated switches from IM into the code cache at hostEntry.
func (e *Engine) enterTranslated(hostEntry uint32) {
	tr := e.CC.EntryAt(hostEntry)
	if tr == nil {
		e.fail("tol: enter at %#x: no translation", hostEntry)
		return
	}
	e.syncCPUFromState()
	e.CC.Touch(tr)
	e.cost.ResumeJump(hostEntry)
	e.cpu.PC = hostEntry
	e.curTrans = tr
	e.inTranslated = true
}

// runTranslated executes host instructions from the code cache until
// control returns to TOL, the stream buffer fills, or the guest halts.
// Under countOnly the buffer fills with reserved slots left unwritten.
//
// This is the hottest loop of the simulator, structured as threaded
// dispatch over the code cache's precomputed metadata: each iteration
// indexes the instruction and its timing.DynInst template by slot,
// executes, copies the template into the stream arena in place, and
// patches only the per-execution fields. No per-instruction decoding,
// classification, attribution or map lookups happen here; translation
// crossings take the map path only when the target leaves the current
// translation's address range.
func (e *Engine) runTranslated() {
	cpu := e.cpu
	cc := e.CC
	insts, meta := cc.insts, cc.meta
	curLo, curHi := e.curTrans.HostEntry, e.curTrans.HostEnd
	var out host.Outcome
	for {
		pc := cpu.PC
		slot := (pc - mem.CodeCacheBase) / host.InstBytes
		if pc < mem.CodeCacheBase || slot >= uint32(len(insts)) {
			e.fail("tol: execution outside code cache at %#x (translation %#x)", pc, e.curTrans.HostEntry)
			return
		}
		if err := cpu.Exec(&insts[slot], &out); err != nil {
			e.fail("tol: host exec: %v", err)
			return
		}
		d := e.queue.alloc()
		if !e.countOnly {
			*d = meta[slot]
			d.MemAddr = out.MemAddr
			d.Taken = out.Taken
			d.Target = out.Target
		}

		if out.Taken {
			target := out.Target
			if target == tolEntry {
				e.handleExit(pc)
				return
			}
			// A taken branch landing strictly inside the current
			// translation (not on its entry) cannot be entering another
			// one — live translations occupy disjoint ranges — so the
			// entry lookup is needed only for external targets and for
			// the current entry itself (self-loop back edge).
			if target-curLo >= curHi-curLo || target == curLo {
				tr := e.curTrans
				if target != curLo {
					tr = cc.byEntry[target]
				}
				if tr != nil && (target != pc || tr != e.curTrans) {
					// Crossing into another translation (chaining, IBTC hit,
					// self-loop back edge): account the exit and continue.
					if !e.accountExit(pc) {
						return
					}
					e.curTrans = tr
					curLo, curHi = tr.HostEntry, tr.HostEnd
					cc.Touch(tr)
					if e.budgetExceeded() {
						return
					}
				}
			}
		}
		if e.queue.head == 0 && len(e.queue.buf) >= queueDrainThreshold {
			return
		}
	}
}

func (e *Engine) budgetExceeded() bool {
	if e.Cfg.MaxGuestInsts != 0 && e.Stats.DynTotal() >= e.Cfg.MaxGuestInsts {
		e.fail("tol: guest instruction budget (%d) exhausted in translated code", e.Cfg.MaxGuestInsts)
		return true
	}
	return false
}

// accountExit processes the bookkeeping of leaving the current
// translation through the exit at host PC pc: per-mode retired-
// instruction counts and the co-simulation state check. Returns false
// on failure.
func (e *Engine) accountExit(pc uint32) bool {
	info := e.curTrans.Exits[pc]
	if info == nil {
		e.fail("tol: unknown exit at %#x from translation %#x", pc, e.curTrans.HostEntry)
		return false
	}
	return e.accountExitInfo(pc, info)
}

// accountExitInfo is accountExit with the exit descriptor already
// resolved, so paths that needed the descriptor anyway (handleExit)
// do not look it up twice.
func (e *Engine) accountExitInfo(pc uint32, info *ExitInfo) bool {
	if info.Retired > 0 {
		switch e.curTrans.Kind {
		case KindBB:
			e.Stats.DynBBM += uint64(info.Retired)
		default:
			e.Stats.DynSBM += uint64(info.Retired)
		}
	}
	if info.Dynamic {
		e.Stats.IndirectDyn++
	}

	if e.shadow != nil {
		for i := 0; i < info.Retired; i++ {
			if _, err := e.shadow.Step(); err != nil {
				e.fail("tol: shadow emulator: %v", err)
				return false
			}
		}
		target := info.GuestTarget
		if info.Dynamic {
			target = e.cpu.R[sc0]
		}
		got := e.stateFromCPU(target)
		e.Stats.CosimChecks++
		if d := got.Diff(&e.shadow.State); d != "" {
			if e.err == nil {
				div := e.newDivergence(e.curTrans.Kind.String(), target, &got)
				div.ExitReason = info.Reason.String()
				div.GuestEntry = e.curTrans.GuestEntry
				div.HostPC = pc
				e.err = div
			}
			return false
		}
	}
	return true
}

// handleExit services a transition into TOL from the exit at pc.
func (e *Engine) handleExit(pc uint32) {
	info := e.curTrans.Exits[pc]
	if info == nil {
		e.fail("tol: unknown TOL transition at %#x", pc)
		return
	}
	if !e.accountExitInfo(pc, info) {
		return
	}
	e.Stats.Transitions++
	e.cost.Transition(pc)
	e.inTranslated = false

	switch info.Reason {
	case ExitHalt:
		e.gs = e.stateFromCPU(info.GuestTarget)
		e.halted = true

	case ExitPromote:
		e.handlePromote(info)

	case ExitIndirect:
		e.handleIndirect()

	default: // static targets: taken/fallthrough/self-loop
		e.handleStaticExit(pc, info)
	}
}

// handlePromote services a BBM block whose counter crossed BB/SBth.
func (e *Engine) handlePromote(info *ExitInfo) {
	seed := info.GuestTarget
	bbTrans := e.curTrans
	sb := e.promoted[seed]
	if sb == nil {
		if !e.Cfg.EnableSBM {
			// SBM disabled: reset the counter and continue in BBM.
			e.prof.Reset(seed)
			e.resumeAt(bbTrans.HostEntry)
			return
		}
		sb = e.buildSB(seed)
		if sb == nil {
			if e.err == nil {
				// Superblock larger than the whole cache: give up on
				// promotion for now (reset the counter so the threshold
				// must be earned again) and continue in BBM.
				e.prof.Reset(seed)
				e.resumeAt(bbTrans.HostEntry)
			}
			return
		}
		e.promoted[seed] = sb
		// Redirect the BBM block to the superblock: patch its first
		// instruction and register a zero-retire exit on it. Placing the
		// superblock may have evicted the BBM block itself; then there
		// is nothing left to redirect (a future miss on seed finds the
		// superblock through the translation table).
		if e.CC.EntryAt(bbTrans.HostEntry) == bbTrans {
			if err := e.CC.Patch(bbTrans.HostEntry, sb.HostEntry); err != nil {
				e.fail("tol: promote patch: %v", err)
				return
			}
			bbTrans.Exits[bbTrans.HostEntry] = &ExitInfo{
				Reason: ExitTaken, Retired: 0, GuestTarget: seed, Chained: true,
			}
			e.Stats.Chains++
			e.cost.Chain(bbTrans.HostEntry)
		}
	}
	e.resumeAt(sb.HostEntry)
}

// handleIndirect services an IBTC miss: the guest target is in the
// scratch register per the translation ABI.
func (e *Engine) handleIndirect() {
	target := e.cpu.R[sc0]
	entry, ok, probes := e.tt.Lookup(target)
	e.Stats.Lookups++
	e.Stats.LookupProbes += uint64(len(probes))
	e.cost.Lookup(probes, ok)
	if !ok {
		cnt := e.prof.Bump(target)
		e.cost.IMProfile(e.prof.SlotAddr(target), probes[0])
		if e.policy.ShouldTranslate(target, cnt) {
			if tr := e.translateBB(target); tr != nil {
				entry, ok = tr.HostEntry, true
			}
		}
	}
	if !ok {
		// Fall back to interpretation at the target.
		e.gs = e.stateFromCPU(target)
		return
	}
	if e.Cfg.EnableIBTC {
		e.ib.Fill(target, entry)
		e.Stats.IBTCFills++
		e.cost.IBTCFill(target)
	}
	e.resumeAt(entry)
}

// handleStaticExit services a block ending at a statically known guest
// target: find or create the target translation, chain the exit, and
// resume; or fall back to IM below the threshold.
func (e *Engine) handleStaticExit(pc uint32, info *ExitInfo) {
	target := info.GuestTarget
	entry, ok, probes := e.tt.Lookup(target)
	e.Stats.Lookups++
	e.Stats.LookupProbes += uint64(len(probes))
	e.cost.Lookup(probes, ok)
	if !ok {
		cnt := e.prof.Bump(target)
		e.cost.IMProfile(e.prof.SlotAddr(target), probes[0])
		if e.policy.ShouldTranslate(target, cnt) {
			if tr := e.translateBB(target); tr != nil {
				entry, ok = tr.HostEntry, true
			}
		}
	}
	if !ok {
		e.gs = e.stateFromCPU(target)
		return
	}
	// Chain the exit — unless the source translation was evicted while
	// translating the target, in which case its exit slot is gone (and
	// may already hold other code).
	if e.Cfg.EnableChaining && !info.Chained && e.CC.EntryAt(e.curTrans.HostEntry) == e.curTrans {
		if err := e.CC.Patch(pc, entry); err != nil {
			e.fail("tol: chain: %v", err)
			return
		}
		info.Chained = true
		e.Stats.Chains++
		e.cost.Chain(pc)
	}
	e.resumeAt(entry)
}

// resumeAt re-enters translated execution at a translation entry. The
// guest state is already in the CPU registers (it never left them
// while TOL ran).
func (e *Engine) resumeAt(hostEntry uint32) {
	tr := e.CC.EntryAt(hostEntry)
	if tr == nil {
		e.fail("tol: resume at %#x: no translation", hostEntry)
		return
	}
	e.CC.Touch(tr)
	e.cost.ResumeJump(hostEntry)
	e.curTrans = tr
	e.cpu.PC = hostEntry
	e.inTranslated = true
}
