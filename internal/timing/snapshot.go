package timing

import (
	"errors"
	"fmt"
)

// ErrPaused is returned by RunContext when the StopWhen predicate
// fired: the simulator stopped at a cycle boundary with all in-flight
// state intact. The caller may Snapshot it, resume it by calling
// RunContext again (after clearing or replacing StopWhen), or both.
var ErrPaused = errors.New("timing: paused by StopWhen")

// Validate rejects an instruction whose owner, component or scoreboard
// registers lie outside the simulator's tables. The engine never emits
// one, but a decoded snapshot can carry one; the restore paths check
// every queued instruction so a doctored snapshot is an error, not a
// panic on resume.
func (d *DynInst) Validate() error {
	if d.Owner >= NumOwners || d.Comp >= NumComponents {
		return fmt.Errorf("timing: instruction at %#x has owner %d, component %d", d.PC, d.Owner, d.Comp)
	}
	for _, r := range [...]uint8{d.Dst, d.Src1, d.Src2} {
		if r >= NumSBRegs && r != RegNone {
			return fmt.Errorf("timing: instruction at %#x names scoreboard register %d", d.PC, r)
		}
	}
	return nil
}

// LinesSnap captures one set-associative array — a cache, a TLB level
// or the BTB — exactly as stored: Tags and Valid way-major within set,
// one PLRU tree per set.
type LinesSnap struct {
	Tags  []uint32 `json:"tags"`
	Valid []byte   `json:"valid"` // 1 = line valid
	PLRU  []uint16 `json:"plru"`
}

// SetSnap captures the contents of one structure set: its caches in
// Result order (L1I, L1D, L2, L1 TLB, L2 TLB), the Gshare predictor and
// BTB, the stride prefetcher, and the fetch unit's current I-cache
// line. Its statistics are counters of SimSnapshot.Res.
type SetSnap struct {
	Caches [numCaches]LinesSnap `json:"caches"`

	History    uint32    `json:"history"`
	Counters   []byte    `json:"counters"`
	BTB        LinesSnap `json:"btb"`
	BTBTargets []uint32  `json:"btb_targets"`

	PrefTags   []uint32 `json:"pref_tags"`
	PrefLast   []uint32 `json:"pref_last"`
	PrefStride []int32  `json:"pref_stride"`
	PrefConf   []byte   `json:"pref_conf"`

	LastFetchLine uint32 `json:"last_fetch_line"`
	HaveFetchLine bool   `json:"have_fetch_line"`
}

// SimSnapshot is a complete, JSON-serializable capture of a Simulator
// paused at a cycle boundary (RunContext returned ErrPaused, or never
// ran). RestoreSimulator rebuilds a simulator that, resumed on the
// same stream suffix, produces byte-identical results to the original
// continuing uninterrupted — the foundation of checkpoint/restore.
//
// Sets holds one entry per structure set: one in the shared, app-only
// and tol-only modes, one per owner in ModeSplit.
type SimSnapshot struct {
	Cfg  Config `json:"config"`
	Mode Mode   `json:"mode"`

	Cycle uint64 `json:"cycle"`
	// Res holds the accumulated counters, structure statistics
	// included; Cycles is set only once the run completes.
	Res Result `json:"result"`

	RegReady [NumSBRegs]uint64 `json:"reg_ready"`
	RegDMiss [NumSBRegs]bool   `json:"reg_dmiss"`

	IQ []IQEntry `json:"iq,omitempty"`

	FetchState      uint8     `json:"fetch_state"`
	FetchReadyAt    uint64    `json:"fetch_ready_at"`
	FetchBlockOwner Owner     `json:"fetch_block_owner"`
	FetchBlockComp  Component `json:"fetch_block_comp"`
	StalledBranch   int       `json:"stalled_branch"`
	Pending         *DynInst  `json:"pending,omitempty"` // pulled, awaiting the I-cache
	StreamDone      bool      `json:"stream_done,omitempty"`
	Batch           []DynInst `json:"batch,omitempty"` // undelivered refill tail

	Sets []SetSnap `json:"sets"`
}

// Snapshot captures the simulator's complete state. It must only be
// called while the simulator is stopped at a cycle boundary — before
// RunContext, or after it returned (ErrPaused or completion).
func (s *Simulator) Snapshot() *SimSnapshot {
	sn := &SimSnapshot{
		Cfg:             s.cfg,
		Mode:            s.mode,
		Cycle:           s.cycle,
		Res:             s.res,
		RegReady:        s.regReady,
		RegDMiss:        s.regDMiss,
		FetchState:      uint8(s.fetchState),
		FetchReadyAt:    s.fetchReadyAt,
		FetchBlockOwner: s.fetchBlockOwner,
		FetchBlockComp:  s.fetchBlockComp,
		StalledBranch:   s.stalledBranch,
		StreamDone:      s.streamDone,
	}
	for i := 0; i < s.iqCount; i++ {
		sn.IQ = append(sn.IQ, *s.iqAt(i))
	}
	if s.pending != nil {
		p := *s.pending
		sn.Pending = &p
	}
	if s.batchPos < s.batchLen {
		sn.Batch = append([]DynInst(nil), s.batch[s.batchPos:s.batchLen]...)
	}
	for _, st := range s.sets() {
		sn.Sets = append(sn.Sets, st.snap())
	}
	return sn
}

// RestoreSimulator rebuilds a Simulator from a snapshot. The returned
// simulator is ready to resume via RunContext with a source delivering
// the remainder of the original stream. Structure geometries are
// validated against the snapshot's own Config, and the fetch unit's
// state against what a run can produce; a mismatch (a corrupt or
// hand-edited snapshot) is an error, never a panic or a run that
// cannot advance.
func RestoreSimulator(sn *SimSnapshot) (*Simulator, error) {
	if err := sn.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sn.IQ) > sn.Cfg.IQSize {
		return nil, fmt.Errorf("timing: snapshot IQ holds %d entries, config IQSize=%d", len(sn.IQ), sn.Cfg.IQSize)
	}
	if sn.Mode >= NumModes {
		return nil, fmt.Errorf("timing: snapshot mode %d out of range", sn.Mode)
	}
	if sn.FetchBlockOwner >= NumOwners || sn.FetchBlockComp >= NumComponents {
		return nil, fmt.Errorf("timing: snapshot fetch blocker has owner %d, component %d", sn.FetchBlockOwner, sn.FetchBlockComp)
	}
	if err := sn.checkFetch(); err != nil {
		return nil, err
	}
	s := NewSimulator(sn.Cfg, sn.Mode)
	s.cycle = sn.Cycle
	s.res = sn.Res
	s.regReady = sn.RegReady
	s.regDMiss = sn.RegDMiss
	s.fetchState = fetchBlock(sn.FetchState)
	s.fetchReadyAt = sn.FetchReadyAt
	s.fetchBlockOwner = sn.FetchBlockOwner
	s.fetchBlockComp = sn.FetchBlockComp
	s.stalledBranch = sn.StalledBranch
	s.streamDone = sn.StreamDone
	s.iqHead, s.iqCount = 0, copy(s.iq, sn.IQ)
	// A live run's pending instruction sits in the batch buffer just
	// ahead of the undelivered tail; the restore puts it back there.
	if sn.Pending != nil {
		s.batch[0] = *sn.Pending
		s.pending, s.batchPos = &s.batch[0], 1
	}
	s.batchLen = s.batchPos + copy(s.batch[s.batchPos:], sn.Batch)
	if s.batchLen < s.batchPos+len(sn.Batch) {
		return nil, fmt.Errorf("timing: snapshot holds %d undelivered instructions, config StreamBatch=%d", s.batchPos+len(sn.Batch), len(s.batch))
	}
	for i := range s.iqCount {
		if err := s.iq[i].Inst.Validate(); err != nil {
			return nil, err
		}
	}
	for i := range s.batchLen {
		if err := s.batch[i].Validate(); err != nil {
			return nil, err
		}
	}
	sets := s.sets()
	if len(sn.Sets) != len(sets) {
		return nil, fmt.Errorf("timing: snapshot has %d structure sets, mode %v has %d", len(sn.Sets), sn.Mode, len(sets))
	}
	for i, st := range sets {
		if err := st.restore(&sn.Sets[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkFetch rejects a fetch-unit state no run can produce: an unknown
// state, a stalled branch outside a branch wait or not naming a
// mispredicted IQ entry, or a stall longer than the config's longest.
// Restored, each would leave fetch blocked for good.
func (sn *SimSnapshot) checkFetch() error {
	state := fetchBlock(sn.FetchState)
	if state > fetchRedirect {
		return fmt.Errorf("timing: snapshot fetch state %d out of range", sn.FetchState)
	}
	if b := sn.StalledBranch; state == fetchBranchWait {
		if b < 0 || b >= len(sn.IQ) || !sn.IQ[b].Mispredict {
			return fmt.Errorf("timing: snapshot fetch waits on IQ entry %d, not a mispredicted branch", b)
		}
	} else if b != -1 {
		return fmt.Errorf("timing: snapshot stalled branch %d outside a branch wait", b)
	}
	maxStall := sn.Cfg.L2.HitLatency + sn.Cfg.MemLatency
	if state == fetchRedirect {
		maxStall = 1 + sn.Cfg.MispredictPenalty
	}
	if (state == fetchIMiss || state == fetchRedirect) &&
		sn.FetchReadyAt > sn.Cycle && sn.FetchReadyAt-sn.Cycle > uint64(maxStall) {
		return fmt.Errorf("timing: snapshot fetch stalls until cycle %d, %d cycles is the longest stall", sn.FetchReadyAt, maxStall)
	}
	return nil
}

func (a *setAssoc) snap() LinesSnap {
	sn := LinesSnap{
		Tags:  make([]uint32, len(a.lines)),
		Valid: make([]byte, len(a.lines)),
		PLRU:  make([]uint16, len(a.plru)),
	}
	for i, l := range a.lines {
		sn.Tags[i] = l.tag
		if l.valid {
			sn.Valid[i] = 1
		}
	}
	for i, t := range a.plru {
		sn.PLRU[i] = uint16(t)
	}
	return sn
}

func (a *setAssoc) restore(sn *LinesSnap) error {
	if len(sn.Tags) != len(a.lines) || len(sn.Valid) != len(a.lines) || len(sn.PLRU) != len(a.plru) {
		return errors.New("timing: set-associative snapshot does not match configured geometry")
	}
	for i := range a.lines {
		a.lines[i] = cacheLine{tag: sn.Tags[i], valid: sn.Valid[i] != 0}
	}
	for i := range a.plru {
		a.plru[i] = plruTree(sn.PLRU[i])
	}
	return nil
}

func (st *structures) snap() SetSnap {
	p, pf := &st.bp, &st.pref
	sn := SetSnap{
		History:       p.history,
		Counters:      append([]byte(nil), p.counters...),
		BTB:           p.btb.snap(),
		BTBTargets:    append([]uint32(nil), p.btbTargets...),
		PrefTags:      append([]uint32(nil), pf.tags...),
		PrefLast:      append([]uint32(nil), pf.last...),
		PrefStride:    append([]int32(nil), pf.stride...),
		PrefConf:      append([]byte(nil), pf.conf...),
		LastFetchLine: st.lastFetchLine,
		HaveFetchLine: st.haveFetchLine,
	}
	for k, c := range st.caches() {
		sn.Caches[k] = c.snap()
	}
	return sn
}

func (st *structures) restore(sn *SetSnap) error {
	p, pf := &st.bp, &st.pref
	if len(sn.Counters) != len(p.counters) || len(sn.BTBTargets) != len(p.btbTargets) ||
		len(sn.PrefTags) != len(pf.tags) || len(sn.PrefLast) != len(pf.last) ||
		len(sn.PrefStride) != len(pf.stride) || len(sn.PrefConf) != len(pf.conf) {
		return errors.New("timing: predictor or prefetcher snapshot does not match configured geometry")
	}
	for k, c := range st.caches() {
		if err := c.restore(&sn.Caches[k]); err != nil {
			return err
		}
	}
	if err := p.btb.restore(&sn.BTB); err != nil {
		return err
	}
	p.history = sn.History
	copy(p.counters, sn.Counters)
	copy(p.btbTargets, sn.BTBTargets)
	copy(pf.tags, sn.PrefTags)
	copy(pf.last, sn.PrefLast)
	copy(pf.stride, sn.PrefStride)
	copy(pf.conf, sn.PrefConf)
	st.lastFetchLine, st.haveFetchLine = sn.LastFetchLine, sn.HaveFetchLine
	return nil
}
