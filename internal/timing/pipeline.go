package timing

import (
	"context"
	"fmt"
)

// IQEntry is one instruction waiting in the instruction queue, and
// one slot of SimSnapshot.IQ (head-first).
type IQEntry struct {
	Inst       DynInst `json:"inst"`
	Mispredict bool    `json:"mispredict,omitempty"`
}

type fetchBlock uint8

const (
	fetchFree fetchBlock = iota
	fetchIMiss
	fetchBranchWait // waiting for a mispredicted branch to reach EXE
	fetchRedirect   // mispredict penalty running
)

// structures is one set of modelled microarchitectural state: the
// caches, the two data-TLB levels, the branch predictor, the prefetcher
// and the fetch unit's current I-cache line. Its statistics are
// counters of a Result, bound at construction.
type structures struct {
	l1i, l1d, l2 cache
	l1t, l2t     cache // data-TLB levels: caches of pages
	bp           predictor
	pref         stridePrefetcher

	// lastFetchLine is the I-cache line fetch last accessed (valid when
	// haveFetchLine); fetches from the same line do not access again.
	lastFetchLine uint32
	haveFetchLine bool
}

// newStructures builds a structure set counting into res. In
// ModeSplit both sets count into the one Result: its counters are per
// owner, and each set sees only its owner's instructions.
func newStructures(cfg *Config, res *Result) *structures {
	return &structures{
		l1i:  newCache(cfg.L1I, &res.L1I),
		l1d:  newCache(cfg.L1D, &res.L1D),
		l2:   newCache(cfg.L2, &res.L2),
		l1t:  newCache(tlbCache(cfg.L1TLB), &res.L1TLB),
		l2t:  newCache(tlbCache(cfg.L2TLB), &res.L2TLB),
		bp:   newPredictor(cfg, &res.Branch),
		pref: newStridePrefetcher(cfg.PrefetcherEntries, &res.PrefetchesIssued),
	}
}

const numCaches = 5

// caches returns the set's caches in Result order: L1I, L1D, L2, L1
// TLB, L2 TLB.
func (st *structures) caches() [numCaches]*cache {
	return [numCaches]*cache{&st.l1i, &st.l1d, &st.l2, &st.l1t, &st.l2t}
}

// Simulator is the timing model. Create one per run with NewSimulator;
// the structures are stateful (caches, predictor, TLB), so a Simulator
// models one continuous execution.
type Simulator struct {
	cfg  Config
	mode Mode

	// st holds one structure set in the shared and drop modes (both
	// owners index slot 0) and a private set per owner in ModeSplit.
	st [NumOwners]*structures

	// Scoreboard: cycle each register becomes ready, and whether its
	// producer was a load that missed in the L1 data cache.
	regReady [NumSBRegs]uint64
	regDMiss [NumSBRegs]bool

	// Instruction queue as a ring buffer of capacity cfg.IQSize.
	iq      []IQEntry
	iqHead  int
	iqCount int

	cycle uint64

	fetchState      fetchBlock
	fetchReadyAt    uint64 // when fetchIMiss/fetchRedirect clears
	fetchBlockOwner Owner
	fetchBlockComp  Component
	// pending points at the next instruction (already pulled, awaiting
	// I$) inside the batch buffer, just ahead of batchPos; nil when
	// none. The batch is only refilled after the pointee is consumed
	// into the IQ, so the reference stays valid without copying the
	// instruction out.
	pending    *DynInst
	streamDone bool

	// Stream batching: instructions are pulled from the source in
	// slices of cfg.StreamBatch (see BatchSource) into batch, and fetch
	// consumes them one by one without further interface calls. runCtx
	// is polled once per refill; a cancellation observed there is
	// published through ctxErr and surfaced by the cycle loop.
	batch    []DynInst
	batchPos int
	batchLen int
	src      BatchSource
	runCtx   context.Context
	ctxErr   error

	// nextProgress is the cycle of the next Progress report (avoids a
	// modulo in the cycle loop).
	nextProgress uint64

	// stalledBranch counts IQ entries (from the head) up to and
	// including the mispredicted branch fetch is waiting on; -1 if none.
	stalledBranch int

	// res accumulates the run's Result; the structures count into it
	// directly.
	res Result

	// MaxCycles aborts a runaway simulation (0 means no limit).
	MaxCycles uint64

	// Progress, when non-nil, is invoked from inside the cycle loop
	// every progressEvery cycles with the cycle count and the number of
	// retired host instructions so far. It must not mutate the
	// simulator; it exists purely for observability (and is the hook
	// darco uses to stream per-job progress events).
	Progress func(cycles, insts uint64)

	// StopWhen, when non-nil, is evaluated at the top of every cycle;
	// returning true pauses the simulation at that cycle boundary and
	// RunContext returns ErrPaused with all in-flight state intact. The
	// caller may then Snapshot the simulator and/or resume it by calling
	// RunContext again (replacing or clearing StopWhen first, or the
	// pause re-fires immediately). The predicate typically tests the
	// source's state as of the simulator's position in the stream (e.g.
	// the engine's retired-instruction count), which advances only at
	// batch refills, so pauses land deterministically for a given
	// stream and configuration. A source behind a RunAhead may be
	// batches ahead of that position, and on another goroutine: the
	// predicate must then read RunAhead.Probe, never the source.
	StopWhen func() bool
}

// progressEvery is the Progress period in cycles: frequent enough for
// interactive feedback, rare enough to be free.
const progressEvery = 1 << 22

// ctxCheckMask throttles context-cancellation polls inside the cycle
// loop: the context is consulted every ctxCheckMask+1 cycles, so a
// cancelled RunContext returns within a few thousand simulated cycles
// (microseconds of host time) instead of waiting for MaxCycles. The
// primary poll site is the per-batch refill (see nextInst); this
// cycle-count poll bounds the abort latency of long stream-free
// stretches (pipeline drain, bubble runs) as well.
const ctxCheckMask = 1<<13 - 1

// NewSimulator builds a simulator for the given configuration and mode.
func NewSimulator(cfg Config, mode Mode) *Simulator {
	batch := cfg.StreamBatch
	if batch <= 0 {
		batch = defaultStreamBatch
	}
	s := &Simulator{
		cfg:           cfg,
		mode:          mode,
		iq:            make([]IQEntry, cfg.IQSize),
		stalledBranch: -1,
		batch:         make([]DynInst, batch),
	}
	for i := range s.sets() {
		s.st[i] = newStructures(&cfg, &s.res)
	}
	return s
}

// sets returns the simulator's structure sets.
func (s *Simulator) sets() []*structures {
	if s.mode == ModeSplit {
		return s.st[:]
	}
	return s.st[:1]
}

// set returns the structure set an owner's instructions use.
func (s *Simulator) set(o Owner) *structures {
	if s.mode == ModeSplit {
		return s.st[o]
	}
	return s.st[0]
}

// skip reports whether the mode drops instructions of this owner.
func (s *Simulator) skip(o Owner) bool {
	switch s.mode {
	case ModeAppOnly:
		return o == OwnerTOL
	case ModeTOLOnly:
		return o == OwnerApp
	}
	return false
}

func (s *Simulator) iqAt(i int) *IQEntry {
	idx := s.iqHead + i
	if idx >= len(s.iq) {
		idx -= len(s.iq)
	}
	return &s.iq[idx]
}

// iqPush appends *d to the queue tail and returns the stored entry so
// fetch can predict/flag it in place — one copy from the batch buffer
// into the ring, no intermediates.
func (s *Simulator) iqPush(d *DynInst) *IQEntry {
	idx := s.iqHead + s.iqCount
	if idx >= len(s.iq) {
		idx -= len(s.iq)
	}
	e := &s.iq[idx]
	e.Inst = *d
	e.Mispredict = false
	s.iqCount++
	return e
}

func (s *Simulator) iqPop() {
	s.iqHead++
	if s.iqHead == len(s.iq) {
		s.iqHead = 0
	}
	s.iqCount--
	if s.stalledBranch > 0 {
		s.stalledBranch--
	}
}

// instAccess models the instruction fetch path for a PC, returning the
// stall in cycles beyond the pipelined hit latency (0 on L1I hit).
// Accesses are counted per cache line, not per instruction.
func (s *Simulator) instAccess(pc uint32, owner Owner) int {
	st := s.set(owner)
	line := st.l1i.BlockAddr(pc)
	if st.haveFetchLine && line == st.lastFetchLine {
		return 0
	}
	st.lastFetchLine, st.haveFetchLine = line, true
	if st.l1i.Access(line, owner) {
		return 0
	}
	if st.l2.Access(line, owner) {
		return s.cfg.L2.HitLatency
	}
	return s.cfg.L2.HitLatency + s.cfg.MemLatency
}

// dataAccess models the data path: TLB then cache hierarchy, plus the
// stride prefetcher. It returns the access latency (excluding the
// 1-cycle EXE address calculation) and whether the access missed in
// the L1 data cache.
func (s *Simulator) dataAccess(pc, addr uint32, owner Owner) (lat int, l1Miss bool) {
	st := s.set(owner)
	// An L1 TLB hit is overlapped with the L1D access (VIPT-style); the
	// extra cost appears only on L1 TLB misses.
	if !st.l1t.Access(addr, owner) {
		if st.l2t.Access(addr, owner) {
			lat += s.cfg.L2TLB.HitLatency
		} else {
			lat += s.cfg.L2TLB.HitLatency + s.cfg.TLBMissLatency
		}
	}
	if st.l1d.Access(addr, owner) {
		lat += s.cfg.L1D.HitLatency
	} else {
		l1Miss = true
		if st.l2.Access(addr, owner) {
			lat += s.cfg.L2.HitLatency
		} else {
			lat += s.cfg.L2.HitLatency + s.cfg.MemLatency
		}
	}
	if pf := st.pref.Observe(pc, addr); pf != 0 {
		if !st.l1d.Lookup(pf) {
			st.l1d.Insert(pf)
			st.l2.Insert(pf)
		}
	}
	return lat, l1Miss
}

// Run consumes the stream to completion and returns the results.
func (s *Simulator) Run(src BatchSource) (*Result, error) {
	return s.RunContext(context.Background(), src)
}

// RunContext consumes the stream to completion and returns the
// results. Cancellation is polled at every stream-batch refill and,
// as a fallback, every few thousand cycles inside the cycle loop, so
// cancelling ctx aborts a simulation promptly with ctx.Err()
// regardless of MaxCycles.
func (s *Simulator) RunContext(ctx context.Context, src BatchSource) (*Result, error) {
	// Next period boundary strictly above the current cycle, so resumed
	// simulators (restored snapshots, ErrPaused continuations) keep
	// reporting instead of waiting for a boundary already behind them.
	s.nextProgress = (s.cycle/progressEvery + 1) * progressEvery
	s.runCtx = ctx
	s.src = src
	defer func() { s.runCtx, s.src = nil, nil }()
	for {
		if s.ctxErr != nil {
			return nil, s.ctxErr
		}
		if s.cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if s.Progress != nil && s.cycle == s.nextProgress {
			s.Progress(s.cycle, s.res.TotalInsts())
			s.nextProgress += progressEvery
		}
		if s.MaxCycles != 0 && s.cycle > s.MaxCycles {
			return nil, fmt.Errorf("timing: exceeded MaxCycles=%d at %d retired insts",
				s.MaxCycles, s.res.TotalInsts())
		}
		if s.StopWhen != nil && s.StopWhen() {
			return nil, ErrPaused
		}
		s.fetch()
		issued := s.issue()
		if issued == 0 {
			if s.streamDone && s.pending == nil && s.iqCount == 0 {
				// A refill-time cancellation also ends the stream; it
				// must surface as the error, not as a truncated Result.
				if s.ctxErr != nil {
					return nil, s.ctxErr
				}
				break
			}
			s.accountBubble()
		}
		s.cycle++
	}
	s.res.Cycles = s.cycle
	return &s.res, nil
}

// refill pulls the next batch from the source in one call.
func (s *Simulator) refill() bool {
	if err := s.runCtx.Err(); err != nil {
		s.ctxErr = err
		return false
	}
	n := s.src.NextBatch(s.batch)
	s.batchPos, s.batchLen = 0, n
	return n > 0
}

// fetch advances the front end for one cycle.
func (s *Simulator) fetch() {
	switch s.fetchState {
	case fetchIMiss, fetchRedirect:
		if s.cycle < s.fetchReadyAt {
			return
		}
		s.fetchState = fetchFree
	case fetchBranchWait:
		return // released by issue() when the branch reaches EXE
	}

	for fetched := 0; fetched < s.cfg.IssueWidth && s.iqCount < s.cfg.IQSize; fetched++ {
		if s.pending == nil {
			// Pull the next non-skipped instruction straight from the
			// batch buffer; refill (one source call per cfg.StreamBatch
			// instructions, with a context poll) only when it drains.
			for {
				if s.batchPos >= s.batchLen {
					if !s.refill() {
						s.streamDone = true
						return
					}
				}
				p := &s.batch[s.batchPos]
				s.batchPos++
				if !s.skip(p.Owner) {
					s.pending = p
					break
				}
			}
		}
		// Instruction cache.
		if stall := s.instAccess(s.pending.PC, s.pending.Owner); stall > 0 {
			s.fetchState = fetchIMiss
			s.fetchReadyAt = s.cycle + uint64(stall)
			s.fetchBlockOwner = s.pending.Owner
			s.fetchBlockComp = s.pending.Comp
			return
		}
		entry := s.iqPush(s.pending)
		s.pending = nil
		if entry.Inst.IsBranch && !s.set(entry.Inst.Owner).bp.PredictAndTrain(&entry.Inst) {
			entry.Mispredict = true
			// Fetch stops until this branch resolves in EXE.
			s.fetchState = fetchBranchWait
			s.stalledBranch = s.iqCount - 1
			s.fetchBlockOwner = entry.Inst.Owner
			s.fetchBlockComp = entry.Inst.Comp
			return
		}
	}
}

// issue tries to issue up to IssueWidth instructions in order from the
// IQ head, returning how many issued.
func (s *Simulator) issue() int {
	issued := 0
	var issuedOwners [8]Owner
	var issuedComps [8]Component
	for issued < s.cfg.IssueWidth && s.iqCount > 0 {
		e := s.iqAt(0)
		d := &e.Inst
		if !s.ready(d) {
			break
		}
		switch {
		case d.IsLoad:
			lat, l1miss := s.dataAccess(d.PC, d.MemAddr, d.Owner)
			done := s.cycle + 1 + uint64(lat)
			if d.Dst != RegNone {
				s.regReady[d.Dst] = done
				s.regDMiss[d.Dst] = l1miss
			}
		case d.IsStore:
			// Stores retire through the store buffer; the cache state
			// updates now, but nothing waits on them.
			s.dataAccess(d.PC, d.MemAddr, d.Owner)
		default:
			if d.Dst != RegNone {
				s.regReady[d.Dst] = s.cycle + uint64(d.Class.Latency())
				s.regDMiss[d.Dst] = false
			}
		}
		if e.Mispredict && s.fetchState == fetchBranchWait && s.stalledBranch == 0 {
			// Misprediction detected in EXE: redirect after the penalty.
			s.fetchState = fetchRedirect
			s.fetchReadyAt = s.cycle + 1 + uint64(s.cfg.MispredictPenalty)
			s.stalledBranch = -1
		}
		issuedOwners[issued] = d.Owner
		issuedComps[issued] = d.Comp
		s.res.Insts[d.Owner]++
		s.res.InstsByComp[d.Comp]++
		s.iqPop()
		issued++
	}
	if issued > 0 {
		share := 1.0 / float64(issued)
		for i := 0; i < issued; i++ {
			s.res.InstCycles[issuedOwners[i]] += share
			s.res.InstCyclesByComp[issuedComps[i]] += share
		}
	}
	return issued
}

// ready reports whether the instruction's sources are available.
func (s *Simulator) ready(d *DynInst) bool {
	if d.Src1 != RegNone && s.regReady[d.Src1] > s.cycle {
		return false
	}
	if d.Src2 != RegNone && s.regReady[d.Src2] > s.cycle {
		return false
	}
	return true
}

// blockingDMiss reports whether the head instruction is blocked on a
// register produced by a load that missed in the L1 data cache.
func (s *Simulator) blockingDMiss(d *DynInst) bool {
	if d.Src1 != RegNone && s.regReady[d.Src1] > s.cycle && s.regDMiss[d.Src1] {
		return true
	}
	if d.Src2 != RegNone && s.regReady[d.Src2] > s.cycle && s.regDMiss[d.Src2] {
		return true
	}
	return false
}

// accountBubble classifies a zero-issue cycle into the paper's bubble
// sources: data-cache miss, instruction-cache miss, branch, scheduling.
func (s *Simulator) accountBubble() {
	if s.iqCount > 0 {
		d := &s.iqAt(0).Inst
		if s.blockingDMiss(d) {
			s.res.Bubbles[d.Owner][BubbleDMiss]++
		} else {
			s.res.Bubbles[d.Owner][BubbleSched]++
		}
		s.res.BubblesByComp[d.Comp]++
		return
	}
	switch s.fetchState {
	case fetchIMiss:
		s.res.Bubbles[s.fetchBlockOwner][BubbleIMiss]++
		s.res.BubblesByComp[s.fetchBlockComp]++
	case fetchBranchWait, fetchRedirect:
		s.res.Bubbles[s.fetchBlockOwner][BubbleBranch]++
		s.res.BubblesByComp[s.fetchBlockComp]++
	default:
		// Pipeline warm-up or drain with no identified blocker.
		s.res.UnattributedCycles++
	}
}

// ResultSoFar returns a copy of the accumulated Result as of the
// current cycle boundary, without disturbing the in-progress
// accumulation. It is the measurement primitive of sampled simulation:
// the warm-up mark is a ResultSoFar, and the measured interval is the
// element-wise difference (Result.Sub) between the final result and
// that mark.
func (s *Simulator) ResultSoFar() Result {
	res := s.res
	res.Cycles = s.cycle
	return res
}
