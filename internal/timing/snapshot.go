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

// IQEntry is one instruction-queue slot in a snapshot, head-first.
type IQEntry struct {
	Inst       DynInst `json:"inst"`
	Mispredict bool    `json:"mispredict,omitempty"`
}

// LinesSnap captures one set-associative array — a cache, a TLB level
// or the BTB — exactly as stored: Tags and Valid way-major within set,
// one PLRU tree per set.
type LinesSnap struct {
	Tags  []uint32 `json:"tags"`
	Valid []byte   `json:"valid"` // 1 = line valid
	PLRU  []uint16 `json:"plru"`
}

// SetSnap captures one structure set: its caches in Result order (L1I,
// L1D, L2, L1 TLB, L2 TLB) with their statistics, the Gshare predictor
// and BTB, the stride prefetcher, and the fetch unit's current I-cache
// line.
type SetSnap struct {
	Caches     [numCaches]LinesSnap  `json:"caches"`
	CacheStats [numCaches]CacheStats `json:"cache_stats"`

	History    uint32      `json:"history"`
	Counters   []byte      `json:"counters"`
	BTB        LinesSnap   `json:"btb"`
	BTBTargets []uint32    `json:"btb_targets"`
	Branch     BranchStats `json:"branch"`

	PrefTags    []uint32 `json:"pref_tags"`
	PrefLast    []uint32 `json:"pref_last"`
	PrefStride  []int32  `json:"pref_stride"`
	PrefConf    []byte   `json:"pref_conf"`
	PrefsIssued uint64   `json:"prefs_issued"`

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
	// Res holds the pre-finish accumulators; structure statistics live
	// in the structure snapshots and are folded in by finishResult when
	// the restored run completes, exactly once, like an unbroken run.
	Res Result `json:"result"`

	RegReady [NumSBRegs]uint64 `json:"reg_ready"`
	RegDMiss [NumSBRegs]bool   `json:"reg_dmiss"`

	IQ []IQEntry `json:"iq,omitempty"`

	FetchState      uint8     `json:"fetch_state"`
	FetchReadyAt    uint64    `json:"fetch_ready_at"`
	FetchBlockOwner Owner     `json:"fetch_block_owner"`
	FetchBlockComp  Component `json:"fetch_block_comp"`
	StalledBranch   int       `json:"stalled_branch"`
	Pending         *DynInst  `json:"pending,omitempty"`
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
		e := s.iqAt(i)
		sn.IQ = append(sn.IQ, IQEntry{Inst: e.inst, Mispredict: e.mispredict})
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
// validated against the snapshot's own Config; a mismatch (a corrupt
// or hand-edited snapshot) is an error, never a panic.
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
	s := NewSimulator(sn.Cfg, sn.Mode)
	if len(sn.Batch) > len(s.batch) {
		return nil, fmt.Errorf("timing: snapshot batch holds %d instructions, config StreamBatch=%d", len(sn.Batch), len(s.batch))
	}
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
	s.iqHead, s.iqCount = 0, len(sn.IQ)
	for i, e := range sn.IQ {
		if err := e.Inst.Validate(); err != nil {
			return nil, err
		}
		s.iq[i] = iqEntry{inst: e.Inst, mispredict: e.Mispredict}
	}
	if sn.Pending != nil {
		if err := sn.Pending.Validate(); err != nil {
			return nil, err
		}
		s.pendingBuf = *sn.Pending
		s.pending = &s.pendingBuf
	}
	for i := range sn.Batch {
		if err := sn.Batch[i].Validate(); err != nil {
			return nil, err
		}
	}
	s.batchPos, s.batchLen = 0, copy(s.batch, sn.Batch)
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
		Branch:        p.Stats,
		PrefTags:      append([]uint32(nil), pf.tags...),
		PrefLast:      append([]uint32(nil), pf.last...),
		PrefStride:    append([]int32(nil), pf.stride...),
		PrefConf:      append([]byte(nil), pf.conf...),
		PrefsIssued:   pf.Issued,
		LastFetchLine: st.lastFetchLine,
		HaveFetchLine: st.haveFetchLine,
	}
	for k, c := range st.caches() {
		sn.Caches[k] = c.snap()
		sn.CacheStats[k] = c.Stats
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
		c.Stats = sn.CacheStats[k]
	}
	if err := p.btb.restore(&sn.BTB); err != nil {
		return err
	}
	p.history = sn.History
	copy(p.counters, sn.Counters)
	copy(p.btbTargets, sn.BTBTargets)
	p.Stats = sn.Branch
	copy(pf.tags, sn.PrefTags)
	copy(pf.last, sn.PrefLast)
	copy(pf.stride, sn.PrefStride)
	copy(pf.conf, sn.PrefConf)
	pf.Issued = sn.PrefsIssued
	st.lastFetchLine, st.haveFetchLine = sn.LastFetchLine, sn.HaveFetchLine
	return nil
}
