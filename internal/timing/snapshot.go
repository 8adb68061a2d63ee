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

// IQEntry is one instruction-queue slot in a snapshot, head-first.
type IQEntry struct {
	Inst       DynInst `json:"inst"`
	Mispredict bool    `json:"mispredict,omitempty"`
}

// CacheSnap captures the replacement state and statistics of one
// set-associative structure (cache or TLB — the shapes are identical).
// Tags and Valid are way-major within set, exactly as stored.
type CacheSnap struct {
	Tags  []uint32   `json:"tags"`
	Valid []byte     `json:"valid"` // 1 = line valid
	PLRU  []uint16   `json:"plru"`
	Stats CacheStats `json:"stats"`
}

// PredictorSnap captures the Gshare + BTB state and statistics.
type PredictorSnap struct {
	History    uint32      `json:"history"`
	Counters   []byte      `json:"counters"`
	BTBTags    []uint32    `json:"btb_tags"`
	BTBValid   []byte      `json:"btb_valid"`
	BTBTargets []uint32    `json:"btb_targets"`
	BTBPLRU    []uint16    `json:"btb_plru"`
	Stats      BranchStats `json:"stats"`
}

// PrefetcherSnap captures the stride-prefetcher table and counters.
type PrefetcherSnap struct {
	Tags   []uint32 `json:"tags"`
	Last   []uint32 `json:"last"`
	Stride []int32  `json:"stride"`
	Conf   []byte   `json:"conf"`
	Issued uint64   `json:"issued"`
	Useful uint64   `json:"useful"`
}

// SimSnapshot is a complete, JSON-serializable capture of a Simulator
// paused at a cycle boundary (RunContext returned ErrPaused, or never
// ran). RestoreSimulator rebuilds a simulator that, resumed on the
// same stream suffix, produces byte-identical results to the original
// continuing uninterrupted — the foundation of checkpoint/restore.
//
// The per-owner structure slots follow the Simulator's layout: index 0
// only in the shared/app-only/tol-only modes, one slot per owner in
// ModeSplit; unused slots are nil.
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

	FetchState      uint8             `json:"fetch_state"`
	FetchReadyAt    uint64            `json:"fetch_ready_at"`
	FetchBlockOwner Owner             `json:"fetch_block_owner"`
	FetchBlockComp  Component         `json:"fetch_block_comp"`
	LastFetchLine   [NumOwners]uint32 `json:"last_fetch_line"`
	HaveFetchLine   [NumOwners]bool   `json:"have_fetch_line"`
	StalledBranch   int               `json:"stalled_branch"`
	Pending         *DynInst          `json:"pending,omitempty"`
	StreamDone      bool              `json:"stream_done,omitempty"`
	Batch           []DynInst         `json:"batch,omitempty"` // undelivered refill tail

	L1I   [NumOwners]*CacheSnap      `json:"l1i"`
	L1D   [NumOwners]*CacheSnap      `json:"l1d"`
	L2    [NumOwners]*CacheSnap      `json:"l2"`
	L1TLB [NumOwners]*CacheSnap      `json:"l1_tlb"`
	L2TLB [NumOwners]*CacheSnap      `json:"l2_tlb"`
	BP    [NumOwners]*PredictorSnap  `json:"bp"`
	Pref  [NumOwners]*PrefetcherSnap `json:"pref"`
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
		LastFetchLine:   s.lastFetchLine,
		HaveFetchLine:   s.haveFetchLine,
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
	for i := 0; i < int(NumOwners); i++ {
		if s.l1i[i] == nil {
			continue
		}
		sn.L1I[i] = s.l1i[i].snap()
		sn.L1D[i] = s.l1d[i].snap()
		sn.L2[i] = s.l2[i].snap()
		sn.L1TLB[i] = s.l1t[i].snapTLB()
		sn.L2TLB[i] = s.l2t[i].snapTLB()
		sn.BP[i] = s.bp[i].snap()
		sn.Pref[i] = s.pref[i].snap()
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
	s.lastFetchLine = sn.LastFetchLine
	s.haveFetchLine = sn.HaveFetchLine
	s.stalledBranch = sn.StalledBranch
	s.streamDone = sn.StreamDone
	s.iqHead, s.iqCount = 0, len(sn.IQ)
	for i, e := range sn.IQ {
		s.iq[i] = iqEntry{inst: e.Inst, mispredict: e.Mispredict}
	}
	if sn.Pending != nil {
		s.pendingBuf = *sn.Pending
		s.pending = &s.pendingBuf
	}
	s.batchPos, s.batchLen = 0, copy(s.batch, sn.Batch)
	for i := 0; i < int(NumOwners); i++ {
		if s.l1i[i] == nil {
			if sn.L1I[i] != nil {
				return nil, fmt.Errorf("timing: snapshot has structure set %d, mode %v does not", i, sn.Mode)
			}
			continue
		}
		if sn.L1I[i] == nil {
			return nil, fmt.Errorf("timing: snapshot missing structure set %d for mode %v", i, sn.Mode)
		}
		if err := errors.Join(
			s.l1i[i].restore(sn.L1I[i]),
			s.l1d[i].restore(sn.L1D[i]),
			s.l2[i].restore(sn.L2[i]),
			s.l1t[i].restoreTLB(sn.L1TLB[i]),
			s.l2t[i].restoreTLB(sn.L2TLB[i]),
			s.bp[i].restore(sn.BP[i]),
			s.pref[i].restore(sn.Pref[i]),
		); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func snapLines(lines []cacheLine, plru []plruTree, stats CacheStats) *CacheSnap {
	sn := &CacheSnap{
		Tags:  make([]uint32, len(lines)),
		Valid: make([]byte, len(lines)),
		PLRU:  make([]uint16, len(plru)),
		Stats: stats,
	}
	for i, l := range lines {
		sn.Tags[i] = l.tag
		if l.valid {
			sn.Valid[i] = 1
		}
	}
	for i, t := range plru {
		sn.PLRU[i] = uint16(t)
	}
	return sn
}

func restoreLines(lines []cacheLine, plru []plruTree, sn *CacheSnap, what string) error {
	if sn == nil || len(sn.Tags) != len(lines) || len(sn.Valid) != len(lines) || len(sn.PLRU) != len(plru) {
		return fmt.Errorf("timing: %s snapshot does not match configured geometry", what)
	}
	for i := range lines {
		lines[i] = cacheLine{tag: sn.Tags[i], valid: sn.Valid[i] != 0}
	}
	for i := range plru {
		plru[i] = plruTree(sn.PLRU[i])
	}
	return nil
}

func (c *Cache) snap() *CacheSnap { return snapLines(c.lines, c.plru, c.Stats) }

func (c *Cache) restore(sn *CacheSnap) error {
	if err := restoreLines(c.lines, c.plru, sn, "cache"); err != nil {
		return err
	}
	c.Stats = sn.Stats
	return nil
}

func (t *TLB) snapTLB() *CacheSnap { return snapLines(t.lines, t.plru, t.Stats) }

func (t *TLB) restoreTLB(sn *CacheSnap) error {
	if err := restoreLines(t.lines, t.plru, sn, "TLB"); err != nil {
		return err
	}
	t.Stats = sn.Stats
	return nil
}

func (p *Predictor) snap() *PredictorSnap {
	sn := &PredictorSnap{
		History:    p.history,
		Counters:   append([]byte(nil), p.counters...),
		BTBTags:    make([]uint32, len(p.btbTags)),
		BTBValid:   make([]byte, len(p.btbTags)),
		BTBTargets: append([]uint32(nil), p.btbTargets...),
		BTBPLRU:    make([]uint16, len(p.btbPLRU)),
		Stats:      p.Stats,
	}
	for i, l := range p.btbTags {
		sn.BTBTags[i] = l.tag
		if l.valid {
			sn.BTBValid[i] = 1
		}
	}
	for i, t := range p.btbPLRU {
		sn.BTBPLRU[i] = uint16(t)
	}
	return sn
}

func (p *Predictor) restore(sn *PredictorSnap) error {
	if sn == nil || len(sn.Counters) != len(p.counters) ||
		len(sn.BTBTags) != len(p.btbTags) || len(sn.BTBValid) != len(p.btbTags) ||
		len(sn.BTBTargets) != len(p.btbTargets) || len(sn.BTBPLRU) != len(p.btbPLRU) {
		return errors.New("timing: predictor snapshot does not match configured geometry")
	}
	p.history = sn.History
	copy(p.counters, sn.Counters)
	for i := range p.btbTags {
		p.btbTags[i] = cacheLine{tag: sn.BTBTags[i], valid: sn.BTBValid[i] != 0}
	}
	copy(p.btbTargets, sn.BTBTargets)
	for i := range p.btbPLRU {
		p.btbPLRU[i] = plruTree(sn.BTBPLRU[i])
	}
	p.Stats = sn.Stats
	return nil
}

func (p *StridePrefetcher) snap() *PrefetcherSnap {
	return &PrefetcherSnap{
		Tags:   append([]uint32(nil), p.tags...),
		Last:   append([]uint32(nil), p.last...),
		Stride: append([]int32(nil), p.stride...),
		Conf:   append([]byte(nil), p.conf...),
		Issued: p.Issued,
		Useful: p.Useful,
	}
}

func (p *StridePrefetcher) restore(sn *PrefetcherSnap) error {
	if sn == nil || len(sn.Tags) != len(p.tags) || len(sn.Last) != len(p.last) ||
		len(sn.Stride) != len(p.stride) || len(sn.Conf) != len(p.conf) {
		return errors.New("timing: prefetcher snapshot does not match configured geometry")
	}
	copy(p.tags, sn.Tags)
	copy(p.last, sn.Last)
	copy(p.stride, sn.Stride)
	copy(p.conf, sn.Conf)
	p.Issued, p.Useful = sn.Issued, sn.Useful
	return nil
}
