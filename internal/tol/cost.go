package tol

import (
	"runtime"
	"sync"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/timing"
)

// The cost model renders TOL's own execution — interpreting,
// translating, optimizing, code cache lookups, chaining, transitions —
// into dynamic host-instruction streams for the timing simulator.
// Streams carry real simulated addresses: interpreter fetches load the
// actual guest code bytes through the memory window, code cache
// lookups load the actual translation-table slots probed, the
// translator stores to the actual code-cache locations it fills, and
// the optimizer walks the IR buffer region. TOL therefore competes for
// the data cache, instruction cache and branch predictor exactly the
// way the paper's software layer does.
//
// Per-activity instruction budgets (tuned to land in the ranges the
// paper reports — e.g. interpretation costing tens of host
// instructions per guest instruction, indirect-branch servicing "in
// the order of tens of RISC instructions", SBM an order of magnitude
// above BBM per instruction):
const (
	costDispatchLen   = 5 // dispatch loop per interpreted instruction
	costHandlerBase   = 5 // minimum handler body
	costHandlerFlags  = 5 // extra when the op writes EFLAGS
	costHandlerMem    = 3 // extra address computation for memory ops
	costHandlerFP     = 3 // extra for FP ops
	costHandlerBranch = 5 // extra next-EIP handling for branches
	costIMTargetCheck = 3 // quick translated-target check per IM branch

	costLookupHash  = 5 // hash computation before probing
	costLookupProbe = 3 // per probe: load + compare + branch
	costLookupTail  = 3

	costTransitionLen = 14 // translated code -> TOL glue (TOL others)
	costChainALU      = 9  // patch computation around the code store
	costIBTCFillALU   = 6

	costEvictFixed    = 28 // eviction entry/exit bookkeeping
	costEvictPerTrans = 10 // per-victim descriptor walk + table clear ALU

	costBBMPerGuestInst = 26 // decode + IR + emit ALU work per guest inst
	costBBMPerHostInst  = 4  // per emitted host instruction (incl. store)
	costBBMFixed        = 90

	costSBMPerGuestInst = 70 // trace build + IR work per guest inst
	costSBMPerPassVisit = 11 // per optimization-pass instruction visit
	costSBMPerHostInst  = 9  // per emitted host instruction
	costSBMFixed        = 320
)

// costEmitter builds TOL-owned DynInst bursts. It keeps a rotating
// register window so the generated streams have realistic dependency
// distance (ILP ≈ 2 between cache events).
//
// Every burst is emitted in bulk: the activity reserves the most slots
// it can need in the stream queue once (begin), the primitives below
// fill the reserved window in place, and end hands back what was not
// used. Nothing else may append to the queue between begin and end.
type costEmitter struct {
	out     *dynQueue
	w       []timing.DynInst // unfilled remainder of the open burst
	regRot  uint8
	prevDst uint8
}

func newCostEmitter(q *dynQueue) *costEmitter {
	return &costEmitter{out: q, prevDst: timing.RegNone}
}

// begin opens a burst of at most n instructions.
func (c *costEmitter) begin(n int) { c.w = c.out.reserve(n) }

// end closes the burst, returning its unused slots to the queue.
func (c *costEmitter) end() {
	c.out.buf = c.out.buf[:len(c.out.buf)-len(c.w)]
	c.w = nil
}

// next claims the burst's next slot, which holds stale data.
func (c *costEmitter) next() *timing.DynInst {
	d := &c.w[0]
	c.w = c.w[1:]
	return d
}

// rot returns the next destination register (TOL half, r1..r12).
func (c *costEmitter) rot() uint8 {
	c.regRot++
	if c.regRot > 12 {
		c.regRot = 1
	}
	return c.regRot
}

// alu emits one simple-int ALU instruction at pc.
func (c *costEmitter) alu(comp timing.Component, pc uint32) uint32 {
	return c.aluN(comp, pc, 1)
}

// aluN emits n simple-int ALU instructions starting at pc, as one loop
// over the burst window with the register rotation carried in locals.
// Every other instruction depends on its predecessor, which yields a
// realistic ILP between memory events.
func (c *costEmitter) aluN(comp timing.Component, pc uint32, n int) uint32 {
	w := c.w[:n]
	c.w = c.w[n:]
	// The fields every instruction of the run shares are copied from one
	// template and the three that vary stored straight into the slot. (A
	// composite literal per slot is assembled bytewise in a temporary and
	// then copied out wide, which stalls on store forwarding.)
	tmpl := timing.DynInst{
		Class: host.ClassSimpleInt, Owner: timing.OwnerTOL, Comp: comp,
		Src1: timing.RegNone, Src2: timing.RegNone,
	}
	rot, prev := c.regRot, c.prevDst
	for i := range w {
		if rot++; rot > 12 {
			rot = 1
		}
		d := &w[i]
		*d = tmpl
		d.PC = pc
		d.Dst = rot
		if rot%2 == 0 {
			d.Src1 = prev
		}
		prev = rot
		pc += host.InstBytes
	}
	c.regRot, c.prevDst = rot, prev
	return pc
}

// tolInst claims the burst's next slot as a TOL-owned instruction of
// the given class at pc, with no operands and no memory or branch
// behaviour; the primitives below set what differs. Fields are stored
// straight into the slot for the reason given in aluN.
func (c *costEmitter) tolInst(class host.ExecClass, comp timing.Component, pc uint32) *timing.DynInst {
	d := c.next()
	*d = timing.DynInst{}
	d.PC = pc
	d.Class = class
	d.Owner = timing.OwnerTOL
	d.Comp = comp
	d.Dst = timing.RegNone
	d.Src1 = timing.RegNone
	d.Src2 = timing.RegNone
	return d
}

// load emits a load at pc from addr; the loaded value feeds the next
// ALU instruction through the rotation.
func (c *costEmitter) load(comp timing.Component, pc, addr uint32) uint32 {
	d := c.tolInst(host.ClassMem, comp, pc)
	d.Dst = c.rot()
	d.IsLoad = true
	d.MemAddr = addr
	c.prevDst = d.Dst
	return pc + host.InstBytes
}

// store emits a store at pc to addr.
func (c *costEmitter) store(comp timing.Component, pc, addr uint32) uint32 {
	d := c.tolInst(host.ClassMem, comp, pc)
	d.Src1 = c.prevDst
	d.IsStore = true
	d.MemAddr = addr
	return pc + host.InstBytes
}

// branch emits a direct conditional branch at pc.
func (c *costEmitter) branch(comp timing.Component, pc uint32, taken bool, target uint32) uint32 {
	d := c.tolInst(host.ClassSimpleInt, comp, pc)
	d.Src1 = c.prevDst
	d.IsBranch = true
	d.IsCond = true
	d.Taken = taken
	d.Target = target
	if taken {
		return target
	}
	return pc + host.InstBytes
}

// indirect emits an indirect jump at pc to target.
func (c *costEmitter) indirect(comp timing.Component, pc, target uint32) uint32 {
	d := c.tolInst(host.ClassSimpleInt, comp, pc)
	d.Src1 = c.prevDst
	d.IsBranch = true
	d.IsIndirect = true
	d.Taken = true
	d.Target = target
	return target
}

// InterpStep emits the interpretation of one guest instruction: the
// dispatch loop (guest code fetch as data loads, dispatch-table load,
// indirect jump to the handler), the opcode handler body, the guest
// instruction's own data access if any, and the jump back to dispatch.
func (c *costEmitter) InterpStep(res *guest.StepResult, eip uint32) {
	const dispatchMax = 3 + (costDispatchLen - 3) + 1 // fetch loads, table load, glue, jump
	const handlerMax = costHandlerBase + costHandlerFlags + costHandlerMem + costHandlerFP + costHandlerBranch
	c.begin(dispatchMax + handlerMax + 2) // + own memory access, jump back
	in := &res.Inst
	pc := dispatchText
	// Fetch the guest instruction bytes (data loads through the window).
	pc = c.load(timing.CompIM, pc, mem.GuestToHost(eip))
	if in.Size > 4 {
		pc = c.load(timing.CompIM, pc, mem.GuestToHost(eip+4))
	}
	// Dispatch-table load and indirect jump to the handler.
	pc = c.load(timing.CompIM, pc, mem.DispatchTableBase+uint32(in.Op)*4)
	pc = c.aluN(timing.CompIM, pc, costDispatchLen-3)
	handler := interpHandlerText(uint8(in.Op))
	pc = c.indirect(timing.CompIM, pc, handler)

	// Handler body.
	n := costHandlerBase
	if in.WritesFlags() {
		n += costHandlerFlags
	}
	if in.IsMemAccess() {
		n += costHandlerMem
	}
	if in.IsFP() {
		n += costHandlerFP
	}
	if in.IsBranch() {
		n += costHandlerBranch
	}
	pc = c.aluN(timing.CompIM, pc, n)
	// The emulated instruction's own memory access.
	if res.IsLoad {
		pc = c.load(timing.CompIM, pc, mem.GuestToHost(res.MemAddr))
	} else if res.IsStore {
		pc = c.store(timing.CompIM, pc, mem.GuestToHost(res.MemAddr))
	}
	// Back to the dispatch loop.
	c.indirect(timing.CompIM, pc, dispatchText)
	c.end()
}

// IMProfile emits the interpreter-side branch-target bookkeeping:
// counter load/increment/store at the target's profile slot plus the
// quick translated-target check.
func (c *costEmitter) IMProfile(profAddr uint32, probe uint32) {
	c.begin(4 + costIMTargetCheck)
	pc := dispatchText + 0x40
	pc = c.load(timing.CompIM, pc, profAddr)
	pc = c.alu(timing.CompIM, pc)
	pc = c.store(timing.CompIM, pc, profAddr)
	pc = c.aluN(timing.CompIM, pc, costIMTargetCheck)
	c.load(timing.CompCodeCacheLookup, lookupText, transSlotAddr(probe))
	c.end()
}

// Lookup emits a full code cache lookup over the given probed slots.
// When the lookup succeeds, the translation descriptor of the found
// entry is read as well (three fields across its metadata record) —
// the data-intensive traversal the paper identifies.
func (c *costEmitter) Lookup(probes []uint32, found bool) {
	c.begin(costLookupHash + costLookupProbe*len(probes) + 3 + costLookupTail)
	pc := lookupText
	pc = c.aluN(timing.CompCodeCacheLookup, pc, costLookupHash)
	var hit uint32
	for i, slot := range probes {
		pc = c.load(timing.CompCodeCacheLookup, pc, transSlotAddr(slot))
		pc = c.alu(timing.CompCodeCacheLookup, pc)
		last := i == len(probes)-1
		pc = c.branch(timing.CompCodeCacheLookup, pc, last, pc+3*host.InstBytes)
		hit = slot
	}
	if found {
		desc := descAddr(transSlotAddr(hit))
		pc = c.load(timing.CompCodeCacheLookup, pc, desc)
		pc = c.load(timing.CompCodeCacheLookup, pc, desc+12)
		pc = c.load(timing.CompCodeCacheLookup, pc, desc+24)
	}
	c.aluN(timing.CompCodeCacheLookup, pc, costLookupTail)
	c.end()
}

// Transition emits the translated-code-to-TOL transition glue
// (context handling, exit-descriptor decoding) attributed to "TOL
// others". exitPC selects which exit descriptor is read, so distinct
// exits touch distinct metadata lines — the data-intensive transition
// behaviour behind the paper's perlbench analysis.
func (c *costEmitter) Transition(exitPC uint32) {
	c.begin(costTransitionLen + 2)
	pc := dispatchText + 0x80
	pc = c.load(timing.CompTOLOther, pc, mem.TOLStackBase-16)
	pc = c.load(timing.CompTOLOther, pc, mem.TOLStackBase-48)
	// Exit descriptor block: three fields across the descriptor region.
	desc := descAddr(exitPC)
	pc = c.load(timing.CompTOLOther, pc, desc)
	pc = c.load(timing.CompTOLOther, pc, desc+8)
	pc = c.load(timing.CompTOLOther, pc, desc+16)
	pc = c.aluN(timing.CompTOLOther, pc, costTransitionLen-6)
	pc = c.store(timing.CompTOLOther, pc, mem.TOLStackBase-16)
	pc = c.store(timing.CompTOLOther, pc, desc+24)
	c.indirect(timing.CompTOLOther, pc, dispatchText)
	c.end()
}

// descAddr maps an exit host PC to its 32-byte exit-descriptor record
// in the IR-buffer/metadata region.
func descAddr(exitPC uint32) uint32 {
	return mem.IRBufBase + 0x8_0000 + (exitPC>>2)%0xFFF0*32
}

// ResumeJump emits the dispatch loop's indirect jump into the code
// cache when TOL hands control back to a translation — a varying-target
// branch that stresses the BTB exactly like the translated code's own
// indirect jumps do.
func (c *costEmitter) ResumeJump(hostEntry uint32) {
	c.begin(2)
	pc := dispatchText + 0xa0
	pc = c.alu(timing.CompTOLOther, pc)
	c.indirect(timing.CompTOLOther, pc, hostEntry)
	c.end()
}

// Chain emits a chaining operation: reading and patching the exit
// branch at patchPC in the code cache.
func (c *costEmitter) Chain(patchPC uint32) {
	c.begin(costChainALU + 2)
	pc := chainText
	pc = c.aluN(timing.CompChaining, pc, costChainALU/2)
	pc = c.load(timing.CompChaining, pc, patchPC)
	pc = c.aluN(timing.CompChaining, pc, costChainALU-costChainALU/2)
	c.store(timing.CompChaining, pc, patchPC)
	c.end()
}

// Evict emits the cost of one code-cache eviction batch, attributed to
// "TOL others" like the rest of the cache-management glue: per victim,
// the translation descriptor is read and its translation-table slot is
// cleared (a store at the slot's real simulated address); per repaired
// chain patch, the patched code-cache slot is read and rewritten — the
// chaining-repair traffic that makes eviction expensive for
// well-connected code. Retranslation itself is billed by the normal
// BBM/SBM streams when the evicted code is rebuilt on re-entry.
func (c *costEmitter) Evict(victims []*Translation, restoredPCs []uint32) {
	c.begin(costEvictFixed + costEvictPerTrans*len(victims) + 2*len(restoredPCs))
	pc := evictText
	pc = c.aluN(timing.CompTOLOther, pc, costEvictFixed/2)
	for _, tr := range victims {
		pc = c.load(timing.CompTOLOther, pc, descAddr(tr.HostEntry))
		pc = c.aluN(timing.CompTOLOther, pc, costEvictPerTrans-2)
		pc = c.store(timing.CompTOLOther, pc, transSlotAddr(hashGuest(tr.GuestEntry)&transTableMask))
	}
	for _, patch := range restoredPCs {
		pc = c.load(timing.CompTOLOther, pc, patch)
		pc = c.store(timing.CompTOLOther, pc, patch)
	}
	c.aluN(timing.CompTOLOther, pc, costEvictFixed-costEvictFixed/2)
	c.end()
}

// IBTCFill emits the IBTC update after a lookup served an indirect
// branch miss.
func (c *costEmitter) IBTCFill(target uint32) {
	c.begin(costIBTCFillALU + 2)
	pc := ibtcFillText
	pc = c.aluN(timing.CompTOLOther, pc, costIBTCFillALU)
	addr := ibtcSlotAddr(ibtcSlotFor(target))
	pc = c.store(timing.CompTOLOther, pc, addr)
	c.store(timing.CompTOLOther, pc, addr+4)
	c.end()
}

// BBMTranslate emits the cost of translating one basic block: decode
// loads of the guest code, translator ALU work, stores of the emitted
// host instructions into the code cache, and the translation-table
// insert probes.
func (c *costEmitter) BBMTranslate(tr *Translation, work *work) {
	c.begin(costBBMFixed + (costBBMPerGuestInst+1)*len(tr.GuestPCs) +
		costBBMPerHostInst*work.HostEmitted + len(work.TableProbes) + 1)
	pc := translateText
	pc = c.aluN(timing.CompBBM, pc, costBBMFixed/2)
	for i, gpc := range tr.GuestPCs {
		pc = c.load(timing.CompBBM, pc, mem.GuestToHost(gpc))
		pc = c.aluN(timing.CompBBM, pc, costBBMPerGuestInst-1)
		// Loop back through the translator text for the next guest
		// instruction (predictable backward branch).
		if i != len(tr.GuestPCs)-1 {
			pc = c.branch(timing.CompBBM, pc, true, translateText+8*host.InstBytes)
		}
	}
	// Emission: store the produced host code into the code cache.
	hostPC := tr.HostEntry
	for i := 0; i < work.HostEmitted; i++ {
		pc = c.aluN(timing.CompBBM, pc, costBBMPerHostInst-1)
		pc = c.store(timing.CompBBM, pc, hostPC)
		hostPC += host.InstBytes
	}
	for _, slot := range work.TableProbes {
		pc = c.load(timing.CompBBM, pc, transSlotAddr(slot))
	}
	pc = c.store(timing.CompBBM, pc, tr.ProfSlot)
	c.aluN(timing.CompBBM, pc, costBBMFixed-costBBMFixed/2)
	c.end()
}

// sbmCost splits the modeled host instructions of one SBM invocation
// by activity: each optimization pass's IR walk separately, and
// everything else (trace construction, IR build, emission, table
// probes and the fixed prologue/epilogue) as Other. The engine folds
// it into Stats so per-pass SBM time can be reported (the Figure-7
// refinement); the parts always sum to the invocation's total SBM
// stream.
type sbmCost struct {
	PerPass []int // modeled host instructions per pass, aligned with work.Passes
	Other   int   // trace build + emission + bookkeeping instructions
}

// SBMOptimize emits the cost of forming and optimizing a superblock:
// trace construction reads guest code, the IR is built and then
// visited by each optimization pass in the IR buffer region, and the
// final code is stored into the code cache. The returned sbmCost
// reports how many stream instructions each pass accounted for.
func (c *costEmitter) SBMOptimize(tr *Translation, work *work) sbmCost {
	cost := sbmCost{PerPass: make([]int, len(work.Passes))}
	visits := 0
	for _, pr := range work.Passes {
		visits += pr.Visits
	}
	// A visit is costSBMPerPassVisit instructions plus, every 16th, a
	// loop branch.
	most := costSBMFixed + costSBMPerGuestInst*len(tr.GuestPCs) +
		(costSBMPerPassVisit+1)*visits +
		costSBMPerHostInst*work.HostEmitted + len(work.TableProbes)
	c.begin(most)
	mark := func() int { return most - len(c.w) } // instructions emitted so far
	start := mark()

	pc := optimizeText
	pc = c.aluN(timing.CompSBM, pc, costSBMFixed/2)
	// Trace construction + IR build.
	for i, gpc := range tr.GuestPCs {
		pc = c.load(timing.CompSBM, pc, mem.GuestToHost(gpc))
		irAddr := mem.IRBufBase + uint32(i%4096)*16
		pc = c.store(timing.CompSBM, pc, irAddr)
		pc = c.aluN(timing.CompSBM, pc, costSBMPerGuestInst-2)
	}
	preOpt := mark()

	// Optimization passes: each visit loads and updates an IR slot. The
	// visit counter v advances globally across passes, so the emitted
	// stream is identical to billing the pipeline as one block.
	v := 0
	for pi, pr := range work.Passes {
		passStart := mark()
		for k := 0; k < pr.Visits; k++ {
			irAddr := mem.IRBufBase + uint32(v%4096)*16
			pc = c.load(timing.CompSBM, pc, irAddr)
			pc = c.aluN(timing.CompSBM, pc, costSBMPerPassVisit-2)
			pc = c.store(timing.CompSBM, pc, irAddr)
			if v%16 == 15 {
				pc = c.branch(timing.CompSBM, pc, true, optimizeText+16*host.InstBytes)
			}
			v++
		}
		cost.PerPass[pi] = mark() - passStart
	}
	postOpt := mark()

	// Emission into the code cache.
	hostPC := tr.HostEntry
	for i := 0; i < work.HostEmitted; i++ {
		pc = c.aluN(timing.CompSBM, pc, costSBMPerHostInst-1)
		pc = c.store(timing.CompSBM, pc, hostPC)
		hostPC += host.InstBytes
	}
	for _, slot := range work.TableProbes {
		pc = c.load(timing.CompSBM, pc, transSlotAddr(slot))
	}
	c.aluN(timing.CompSBM, pc, costSBMFixed-costSBMFixed/2)

	cost.Other = (preOpt - start) + (mark() - postOpt)
	c.end()
	return cost
}

// Init emits TOL start-up work (one-time, attributed to TOL others).
func (c *costEmitter) Init() {
	c.begin(40*5 + 40/8)
	pc := dispatchText + 0xc0
	for i := 0; i < 40; i++ {
		pc = c.aluN(timing.CompTOLOther, pc, 4)
		pc = c.store(timing.CompTOLOther, pc, mem.TOLStackBase-64-uint32(i)*4)
		if i%8 == 7 {
			pc = c.branch(timing.CompTOLOther, pc, true, dispatchText+0xc0)
		}
	}
	c.end()
}

// dynQueue is the engine's pending dynamic-instruction buffer. The
// backing array is an arena: it reaches its working size in at most
// two allocations and is then reused for the rest of the run, so
// steady-state execution fills and drains it without allocating. An
// arena that reached the burst size outlives its engine: release puts
// it on freeArenas when the stream ends for good, and the next engine
// adopts it at construction, so a run of short engines allocates the
// burst arena once rather than once per engine.
type dynQueue struct {
	buf  []timing.DynInst
	head int
}

// The queue is empty whenever generation starts, so its length is
// bounded by one unit of forward progress. That gives it two working
// sizes: an interpreted step with the TOL services it triggers (a few
// hundred instructions), and a translated burst of queueDrainThreshold
// plus the service that ends it. The arena is allocated at the first,
// moves to the second when a burst first outgrows it, and beyond that
// (a superblock build billed on top of a full burst) grows by a quarter
// over the need rather than doubling from nothing in every engine. An
// engine that adopted a retired engine's arena starts at the second.
const (
	queueStepCap  = 512
	queueBurstCap = queueDrainThreshold + queueStepCap
)

// reserve extends the queue by n slots and returns them for in-place
// filling. The slots hold stale data; callers must overwrite every
// field of each one they keep.
func (q *dynQueue) reserve(n int) []timing.DynInst {
	l := len(q.buf)
	if l+n > cap(q.buf) {
		q.grow(l + n)
	}
	q.buf = q.buf[:l+n]
	return q.buf[l:]
}

// alloc is reserve for one slot (translated execution copies a full
// template over it).
func (q *dynQueue) alloc() *timing.DynInst {
	l := len(q.buf)
	if l == cap(q.buf) {
		q.grow(l + 1)
	}
	q.buf = q.buf[:l+1]
	return &q.buf[l]
}

// grow moves the arena to the working size that holds need slots.
func (q *dynQueue) grow(need int) {
	newCap := queueStepCap
	if need > newCap {
		newCap = max(queueBurstCap, need+need/4)
	}
	q.buf = append(make([]timing.DynInst, 0, newCap), q.buf...)
}

// freeArenas holds the burst-sized arenas of retired engines, at most
// GOMAXPROCS of them (the default number of runs at once). It is a
// locked free list rather than a sync.Pool, whose contents go with the
// second garbage collection: an engine's allocation would then turn on
// when the collector last ran. The list is consulted once per engine,
// by adopt, and never by grow: grow must stay small enough to inline
// into alloc and reserve, which the translated-execution loop and the
// cost emitter call per instruction.
var freeArenas struct {
	sync.Mutex
	list [][]timing.DynInst
}

// adopt takes a retired engine's arena, if the free list holds one,
// for an engine under construction. The arena is cleared to its full
// capacity first, so no engine ever holds another engine's stream in
// its slots.
func (q *dynQueue) adopt() {
	f := &freeArenas
	f.Lock()
	n := len(f.list)
	if n == 0 {
		f.Unlock()
		return
	}
	buf := f.list[n-1]
	f.list[n-1] = nil
	f.list = f.list[:n-1]
	f.Unlock()
	clear(buf[:cap(buf)])
	q.buf, q.head = buf[:0], 0
}

// release drops the arena, keeping it for adopt when it reached the
// burst size (a smaller one is cheaper to allocate than to keep) and
// the free list has room. The queue must be empty.
func (q *dynQueue) release() {
	if cap(q.buf) >= queueBurstCap {
		f := &freeArenas
		f.Lock()
		if len(f.list) < runtime.GOMAXPROCS(0) {
			f.list = append(f.list, q.buf[:0])
		}
		f.Unlock()
	}
	q.buf, q.head = nil, 0
}

func (q *dynQueue) pop(d *timing.DynInst) bool {
	if q.head >= len(q.buf) {
		return false
	}
	*d = q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return true
}

// popBatch moves up to len(buf) queued instructions into buf in one
// copy, returning how many moved — the engine side of
// timing.BatchSource.
func (q *dynQueue) popBatch(buf []timing.DynInst) int {
	n := copy(buf, q.buf[q.head:])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return n
}

// discard empties the queue, returning how many instructions it held.
func (q *dynQueue) discard() int {
	n := len(q.buf) - q.head
	q.buf, q.head = q.buf[:0], 0
	return n
}

func (q *dynQueue) empty() bool { return q.head >= len(q.buf) }
