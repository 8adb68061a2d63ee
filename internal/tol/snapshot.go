package tol

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/emu"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/timing"
)

// engineFields gives every Engine field its snapshot decision:
// captured (and where in EngineSnapshot), rebuilt on restore, transient
// run control, or excluded. TestEngineFieldsHaveSnapshotDecision
// reflects over Engine and fails on a field missing here (or listed
// here but gone), so no state can silently escape checkpoints.
var engineFields = map[string]string{
	"Cfg":          "captured: EngineSnapshot.Cfg (restore rebuilds from it)",
	"isa":          "captured: EngineSnapshot.ISA (restore rejects a mismatch)",
	"plan":         "rebuilt: derived from isa at construction",
	"hostMem":      "captured: EngineSnapshot.Mem (every touched page)",
	"cpu":          "captured: EngineSnapshot.CPU (R, F as IEEE-754 bits, PC)",
	"guestV":       "rebuilt: view over the restored hostMem",
	"guestMem":     "rebuilt: interface conversion of guestV",
	"CC":           "captured: EngineSnapshot.Code (insts, translations, free map)",
	"tt":           "captured: EngineSnapshot.TT (sparse slots incl. tombstones; live and occ are counted from them)",
	"ib":           "captured: EngineSnapshot.IBTC counters; contents live in Mem, and .entry is re-read from it (ibtc.rebuild)",
	"prof":         "captured: EngineSnapshot.Prof slot directory; counters live in Mem",
	"trans":        "rebuilt: stateless; LastWork, bb and em are per-call scratch, dec is the engine's decode cache",
	"cost":         "captured: EngineSnapshot.Cost (register rotation); .w is an open burst's window, nil at every generation boundary",
	"queue":        "captured: EngineSnapshot.Queue (undelivered stream suffix; the arena is not state: adopted from freeArenas, returned at retirement)",
	"dec":          "rebuilt: pure decode cache over immutable guest code, drawn from guest's free list; nil once the engine retired",
	"gs":           "captured: EngineSnapshot.GS",
	"inTranslated": "captured: EngineSnapshot.InTranslated",
	"curTrans":     "captured: EngineSnapshot.CurTrans (entry PC; only meaningful while InTranslated)",
	"halted":       "captured: EngineSnapshot.Halted",
	"err":          "excluded: failed engines refuse to snapshot",
	"ctx":          "transient: run-scoped cancellation, re-attached by the caller",
	"ctxPollIn":    "transient: poll countdown for ctx",
	"shadow":       "captured: EngineSnapshot.Shadow (wholesale: the shadow lags the CPU mid-translation)",
	"promoted":     "captured: EngineSnapshot.Promoted (seed → superblock entry)",
	"policy":       "captured: EngineSnapshot.PolicyState via stateSnapshotter",
	"evicted":      "captured: EngineSnapshot.Evicted",
	"stopAfter":    "transient: run control, re-armed by the caller after restore",
	"paused":       "transient: run control",
	"countOnly":    "transient: Drain's sink setting, off outside Drain",
	"Stats":        "captured: EngineSnapshot.Stats (deep copy)",
}

// stateSnapshotter is implemented by promotion and eviction policies
// that carry mutable per-run state. Policies without it are treated as
// stateless; a stateful policy that omits it would silently reset at
// restore, so the in-tree stateful policies (adaptivePromotion,
// fifoRegionPolicy) implement it and the snapshot tests pin the
// round-trip.
type stateSnapshotter interface {
	SnapshotState() (json.RawMessage, error)
	RestoreState(json.RawMessage) error
}

// adaptiveState is the wire form of adaptivePromotion's mutable state.
type adaptiveState struct {
	Built int `json:"built"`
}

// SnapshotState implements stateSnapshotter.
func (p *adaptivePromotion) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(adaptiveState{Built: p.built})
}

// RestoreState implements stateSnapshotter.
func (p *adaptivePromotion) RestoreState(raw json.RawMessage) error {
	var st adaptiveState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tol: adaptive promotion state: %w", err)
	}
	p.built = st.Built
	return nil
}

// fifoRegionState is the wire form of fifoRegionPolicy's rotation.
type fifoRegionState struct {
	Next int `json:"next"`
}

// SnapshotState implements stateSnapshotter.
func (p *fifoRegionPolicy) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(fifoRegionState{Next: p.next})
}

// RestoreState implements stateSnapshotter.
func (p *fifoRegionPolicy) RestoreState(raw json.RawMessage) error {
	var st fifoRegionState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tol: fifo-region state: %w", err)
	}
	p.next = st.Next
	return nil
}

// policyState captures a promotion or eviction policy's mutable state:
// nil for a stateless policy.
func policyState(p any) (json.RawMessage, error) {
	if ss, ok := p.(stateSnapshotter); ok {
		return ss.SnapshotState()
	}
	return nil, nil
}

// restorePolicyState hands captured state back to a policy; state for
// a policy that keeps none is an error.
func restorePolicyState(p any, raw json.RawMessage, kind string) error {
	if raw == nil {
		return nil
	}
	ss, ok := p.(stateSnapshotter)
	if !ok {
		return fmt.Errorf("tol: snapshot carries %s-policy state but the configured policy has none", kind)
	}
	return ss.RestoreState(raw)
}

// PageSnap is one touched 4 KiB page of a sparse memory.
type PageSnap struct {
	Num  uint32 `json:"num"`
	Data []byte `json:"data"` // PageSize bytes, JSON base64
}

// CPUSnap captures the host register file. FP registers are encoded as
// IEEE-754 bit patterns so NaN payloads round-trip through JSON.
type CPUSnap struct {
	R     [host.NumRegs]uint32  `json:"r"`
	FBits [host.NumFRegs]uint64 `json:"f_bits"`
	PC    uint32                `json:"pc"`
}

// CostSnap captures the cost emitter's register-rotation state, which
// shapes the dependency distances of subsequent TOL cost streams.
type CostSnap struct {
	RegRot  uint8 `json:"reg_rot"`
	PrevDst uint8 `json:"prev_dst"`
}

// ExitSnap is one translation exit descriptor, keyed by host PC.
type ExitSnap struct {
	PC uint32 `json:"pc"`
	ExitInfo
}

// ChainRefSnap is one incoming chain patch recorded on a translation:
// the source translation (by entry PC), the patched slot, and the
// original instruction to restore on eviction. EntryRedirect marks
// BBM→SBM entry patches, whose synthetic exit is dropped (not
// restored) on unlink. DanglingExit marks refs whose exit object is no
// longer the one in the source's Exits map; unlink repair only clears
// Chained on it, so restore substitutes a detached placeholder.
type ChainRefSnap struct {
	From          uint32 `json:"from"`
	PC            uint32 `json:"pc"`
	Orig          []byte `json:"orig"` // host.EncodedBytes canonical encoding
	EntryRedirect bool   `json:"entry_redirect,omitempty"`
	DanglingExit  bool   `json:"dangling_exit,omitempty"`
}

// TranslationSnap is one code-cache entry descriptor.
type TranslationSnap struct {
	TransDesc
	Exits    []ExitSnap     `json:"exits"`
	ProfSlot uint32         `json:"prof_slot,omitempty"`
	LastUse  uint64         `json:"last_use"`
	Incoming []ChainRefSnap `json:"incoming,omitempty"`
}

// CodeCacheSnap captures the code cache: the raw instruction arena
// (including poison slots), every translation descriptor, and the
// allocator bookkeeping. The dispatch metadata arena is not serialized
// — it is a pure function of the instructions and the translations'
// region boundaries, rebuilt on restore.
type CodeCacheSnap struct {
	Insts        []byte            `json:"insts"` // len/EncodedBytes slots
	Translations []TranslationSnap `json:"translations"`
	Free         []extent          `json:"free,omitempty"`
	Used         int               `json:"used"`
	Peak         int               `json:"peak"`
	UseClock     uint64            `json:"use_clock"`
}

// TTSlotSnap is one occupied translation-table slot. Tombstones are
// captured too (Key == ^0): they sit on probe chains, so dropping them
// would shorten future lookup streams and break stats byte-identity.
type TTSlotSnap struct {
	Idx uint32 `json:"idx"`
	Key uint32 `json:"key"`
	Val uint32 `json:"val,omitempty"`
}

// TransTableSnap captures the guest-IP → code-cache hash table.
type TransTableSnap struct {
	Slots []TTSlotSnap `json:"slots"`
	Live  int          `json:"live"`
	Occ   int          `json:"occ"`
}

// ProfSlotSnap is one profile-table directory entry (guest address →
// slot index); the counter values themselves live in host memory.
type ProfSlotSnap struct {
	Guest uint32 `json:"guest"`
	Slot  uint32 `json:"slot"`
}

// ProfileSnap captures the profile-table slot directory.
type ProfileSnap struct {
	Slots []ProfSlotSnap `json:"slots"`
	Next  uint32         `json:"next"`
}

// ShadowSnap captures the co-simulation reference emulator wholesale.
// Mid-translation the shadow lags the CPU by the in-flight block's
// retired instructions, so its state cannot be reconstructed from the
// engine's — it is serialized like a second machine.
type ShadowSnap struct {
	State guest.State `json:"state"`
	Mem   []PageSnap  `json:"mem"`
	emu.Stats
}

// PromotedSnap is one seed → superblock mapping.
type PromotedSnap struct {
	Seed      uint32 `json:"seed"`
	HostEntry uint32 `json:"host_entry"`
}

// EngineSnapshot is a complete, JSON-serializable capture of an Engine
// at a generation boundary (between Next/NextBatch calls). RestoreEngine
// rebuilds an engine that, driven onward, produces a stream and final
// statistics byte-identical to the original continuing uninterrupted.
// engineFields maps every Engine field to its slot here.
type EngineSnapshot struct {
	Cfg Config `json:"config"`

	// ISA is the guest frontend the snapshot was taken under. Restore
	// rejects a program declaring a different frontend: the captured
	// register file, code cache and shadow state are all ABI-specific.
	// Empty in pre-frontend snapshots (implicitly x86).
	ISA string `json:"isa,omitempty"`

	Mem []PageSnap  `json:"mem"`
	CPU CPUSnap     `json:"cpu"`
	GS  guest.State `json:"guest_state"`

	InTranslated bool   `json:"in_translated,omitempty"`
	CurTrans     uint32 `json:"cur_trans,omitempty"` // entry PC; set iff InTranslated
	Halted       bool   `json:"halted,omitempty"`

	Queue []timing.DynInst `json:"queue,omitempty"`
	Cost  CostSnap         `json:"cost"`

	Code CodeCacheSnap  `json:"code_cache"`
	TT   TransTableSnap `json:"trans_table"`
	Prof ProfileSnap    `json:"profile"`
	IBTC IBTCCounters   `json:"ibtc"`

	Promoted []PromotedSnap `json:"promoted,omitempty"`
	Evicted  []uint32       `json:"evicted,omitempty"`

	PolicyState      json.RawMessage `json:"policy_state,omitempty"`
	EvictPolicyState json.RawMessage `json:"evict_policy_state,omitempty"`

	Shadow *ShadowSnap `json:"shadow,omitempty"`

	Stats Stats `json:"stats"`
}

// GuestInsts returns the snapshot's position in retired guest
// instructions.
func (sn *EngineSnapshot) GuestInsts() uint64 { return sn.Stats.DynTotal() }

// snapPages serializes every touched page of a sparse memory in page
// order (deterministic for content addressing).
func snapPages(s *mem.Sparse) []PageSnap {
	nums := s.Pages()
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	out := make([]PageSnap, 0, len(nums))
	for _, n := range nums {
		p := s.PageData(n)
		out = append(out, PageSnap{Num: n, Data: append([]byte(nil), p[:]...)})
	}
	return out
}

// restorePages writes the captured pages into s. Writing every captured
// page — all-zero ones included — recreates the exact touched-page set,
// so a later snapshot of the restored machine matches one of the
// original.
func restorePages(s *mem.Sparse, pages []PageSnap) error {
	for _, p := range pages {
		if len(p.Data) != mem.PageSize {
			return fmt.Errorf("tol: page %#x snapshot holds %d bytes, want %d", p.Num, len(p.Data), mem.PageSize)
		}
		s.WriteBytes(p.Num<<12, p.Data)
	}
	return nil
}

// ccPoisonByte marks a poisoned (evicted) instruction slot in the
// serialized arena; host.Encode cannot represent Op == NumOps.
const ccPoisonByte = 0xFF

// cloneStats deep-copies Stats (map and slice fields included).
func cloneStats(s *Stats) Stats {
	c := *s
	c.StaticMode = maps.Clone(s.StaticMode)
	c.SBPasses = append([]PassStat(nil), s.SBPasses...)
	return c
}

// Snapshot captures the engine's complete state. It must be called at a
// generation boundary — before the first Next/NextBatch, between calls,
// or after the stream ended — and refuses to capture a failed engine.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	if e.err != nil {
		return nil, fmt.Errorf("tol: cannot snapshot failed engine: %w", e.err)
	}
	sn := &EngineSnapshot{
		Cfg: e.Cfg,
		ISA: e.isa.Name,
		Mem: snapPages(e.hostMem),
		CPU: CPUSnap{R: e.cpu.R, PC: e.cpu.PC},
		GS:  e.gs,

		InTranslated: e.inTranslated,
		Halted:       e.halted,

		Cost: CostSnap{RegRot: e.cost.regRot, PrevDst: e.cost.prevDst},

		IBTC:  e.ib.IBTCCounters,
		Stats: cloneStats(&e.Stats),
	}
	for i, f := range e.cpu.F {
		sn.CPU.FBits[i] = math.Float64bits(f)
	}
	if e.inTranslated {
		if e.curTrans == nil || e.CC.EntryAt(e.curTrans.HostEntry) != e.curTrans {
			return nil, fmt.Errorf("tol: snapshot mid-translation without a live current translation")
		}
		sn.CurTrans = e.curTrans.HostEntry
	}
	if !e.queue.empty() {
		sn.Queue = append([]timing.DynInst(nil), e.queue.buf[e.queue.head:]...)
	}

	sn.Code = e.CC.snapshot()
	sn.TT = e.tt.snapshot()
	sn.Prof = e.prof.snapshot()

	for seed, tr := range e.promoted {
		sn.Promoted = append(sn.Promoted, PromotedSnap{Seed: seed, HostEntry: tr.HostEntry})
	}
	sort.Slice(sn.Promoted, func(i, j int) bool { return sn.Promoted[i].Seed < sn.Promoted[j].Seed })
	sn.Evicted = slices.Sorted(maps.Keys(e.evicted))

	var err error
	if sn.PolicyState, err = policyState(e.policy); err != nil {
		return nil, err
	}
	if sn.EvictPolicyState, err = policyState(e.CC.policy); err != nil {
		return nil, err
	}

	if e.shadow != nil {
		sn.Shadow = &ShadowSnap{State: e.shadow.State, Mem: snapPages(e.shadow.Mem), Stats: e.shadow.Stats}
	}
	return sn, nil
}

// snapshot captures the code cache.
func (c *CodeCache) snapshot() CodeCacheSnap {
	sn := CodeCacheSnap{
		Used:     c.used,
		Peak:     c.peak,
		UseClock: c.useClock,
	}
	sn.Insts = make([]byte, 0, len(c.insts)*host.EncodedBytes)
	for i := range c.insts {
		if c.insts[i].Op >= host.NumOps {
			sn.Insts = append(sn.Insts, ccPoisonByte, 0, 0, 0, 0, 0, 0, 0)
			continue
		}
		sn.Insts = host.Encode(sn.Insts, c.insts[i])
	}
	for _, tr := range c.all {
		ts := TranslationSnap{TransDesc: tr.TransDesc, ProfSlot: tr.ProfSlot, LastUse: tr.lastUse}
		ts.GuestPCs = append([]uint32(nil), tr.GuestPCs...)
		for pc, info := range tr.Exits {
			ts.Exits = append(ts.Exits, ExitSnap{PC: pc, ExitInfo: *info})
		}
		sort.Slice(ts.Exits, func(i, j int) bool { return ts.Exits[i].PC < ts.Exits[j].PC })
		for _, ref := range tr.incoming {
			// Refs whose source died stay recorded live but are inert:
			// eviction repair skips them by the same identity check, so
			// they are dropped from the snapshot rather than serialized.
			if c.byEntry[ref.from.HostEntry] != ref.from {
				continue
			}
			rs := ChainRefSnap{
				From:          ref.from.HostEntry,
				PC:            ref.pc,
				EntryRedirect: ref.exit == nil,
			}
			// An exit object can be detached from the source's Exits map
			// while the ref still holds it (a promotion's synthetic exit
			// overwrites or a repair deletes the map entry). Repair only
			// writes Chained=false through such a pointer, so restore can
			// substitute a detached placeholder.
			if ref.exit != nil && ref.from.Exits[ref.pc] != ref.exit {
				rs.DanglingExit = true
			}
			rs.Orig = host.Encode(rs.Orig, ref.orig)
			ts.Incoming = append(ts.Incoming, rs)
		}
		sn.Translations = append(sn.Translations, ts)
	}
	sn.Free = append(sn.Free, c.free...)
	return sn
}

// snapshot captures the translation table sparsely: every occupied slot
// including tombstones, in index order.
func (t *transTable) snapshot() TransTableSnap {
	sn := TransTableSnap{Live: t.live, Occ: t.occ}
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for i, k := range p.keys {
			if k != 0 {
				sn.Slots = append(sn.Slots, TTSlotSnap{Idx: uint32(pi<<ttPageShift + i), Key: k, Val: p.vals[i]})
			}
		}
	}
	return sn
}

// snapshot captures the profile-table slot directory in allocation
// order.
func (p *profileTable) snapshot() ProfileSnap {
	sn := ProfileSnap{Next: p.next}
	for g, idx := range p.slots {
		sn.Slots = append(sn.Slots, ProfSlotSnap{Guest: g, Slot: idx})
	}
	sort.Slice(sn.Slots, func(i, j int) bool { return sn.Slots[i].Slot < sn.Slots[j].Slot })
	return sn
}

// RestoreEngine rebuilds an engine from a snapshot for the given guest
// program (the same program the snapshot was taken from — the snapshot
// carries no program image beyond the memory pages, and the restore
// path reuses NewEngine's wiring). The returned engine resumes exactly
// where the original paused. RestoreEngine only reads sn and copies
// everything it keeps, so any number of goroutines may restore one
// snapshot at the same time.
func RestoreEngine(p *guest.Program, sn *EngineSnapshot) (*Engine, error) {
	e := NewEngine(sn.Cfg, p)
	if e.err != nil {
		return nil, e.err
	}
	if sn.ISA != "" && sn.ISA != e.isa.Name {
		return nil, fmt.Errorf("tol: snapshot taken under ISA %q cannot restore a %q program", sn.ISA, e.isa.Name)
	}
	if err := restorePages(e.hostMem, sn.Mem); err != nil {
		return nil, err
	}
	e.cpu.R = sn.CPU.R
	for i, bits := range sn.CPU.FBits {
		e.cpu.F[i] = math.Float64frombits(bits)
	}
	e.cpu.PC = sn.CPU.PC
	e.gs = sn.GS
	e.halted = sn.Halted

	if err := e.CC.restore(&sn.Code); err != nil {
		return nil, err
	}
	if err := e.tt.restore(&sn.TT); err != nil {
		return nil, err
	}
	if err := e.prof.restore(&sn.Prof); err != nil {
		return nil, err
	}
	e.ib.IBTCCounters = sn.IBTC
	e.ib.rebuild(e.hostMem)

	e.inTranslated = sn.InTranslated
	if sn.InTranslated {
		tr := e.CC.EntryAt(sn.CurTrans)
		if tr == nil {
			return nil, fmt.Errorf("tol: snapshot current translation %#x not in restored cache", sn.CurTrans)
		}
		e.curTrans = tr
	}

	for i := range sn.Queue {
		if err := sn.Queue[i].Validate(); err != nil {
			return nil, fmt.Errorf("tol: snapshot queue: %w", err)
		}
	}
	e.queue.buf = append(e.queue.buf[:0], sn.Queue...)
	e.queue.head = 0
	e.cost.regRot, e.cost.prevDst = sn.Cost.RegRot, sn.Cost.PrevDst

	for _, pr := range sn.Promoted {
		tr := e.CC.EntryAt(pr.HostEntry)
		if tr == nil {
			return nil, fmt.Errorf("tol: promoted superblock %#x not in restored cache", pr.HostEntry)
		}
		e.promoted[pr.Seed] = tr
	}
	if len(sn.Evicted) > 0 {
		e.evicted = make(map[uint32]bool, len(sn.Evicted))
		for _, g := range sn.Evicted {
			e.evicted[g] = true
		}
	}

	if err := restorePolicyState(e.policy, sn.PolicyState, "promotion"); err != nil {
		return nil, err
	}
	if err := restorePolicyState(e.CC.policy, sn.EvictPolicyState, "eviction"); err != nil {
		return nil, err
	}

	switch {
	case sn.Shadow != nil && e.shadow == nil:
		return nil, fmt.Errorf("tol: snapshot carries cosim shadow state but Cosim is disabled")
	case sn.Shadow == nil && e.shadow != nil:
		return nil, fmt.Errorf("tol: snapshot lacks cosim shadow state but Cosim is enabled")
	case sn.Shadow != nil:
		sh := e.shadow
		sh.State, sh.Stats, sh.Mem = sn.Shadow.State, sn.Shadow.Stats, mem.NewSparse()
		if err := restorePages(sh.Mem, sn.Shadow.Mem); err != nil {
			return nil, err
		}
	}

	e.Stats = cloneStats(&sn.Stats)
	return e, nil
}

// restore rebuilds the code cache from its snapshot: the raw arena is
// decoded, translation descriptors are re-linked (exits, incoming chain
// patches), and the dispatch metadata is recomputed per slot from the
// instructions and region attributions — byte-identical to the live
// arena, since placement, patching and chain restore all maintain it
// through the same rebuildMeta path.
func (c *CodeCache) restore(sn *CodeCacheSnap) error {
	if len(sn.Insts)%host.EncodedBytes != 0 {
		return fmt.Errorf("tol: code-cache snapshot arena is %d bytes (not a multiple of %d)", len(sn.Insts), host.EncodedBytes)
	}
	n := len(sn.Insts) / host.EncodedBytes
	if uint32(n) > c.capacity {
		return fmt.Errorf("tol: code-cache snapshot holds %d slots, capacity %d", n, c.capacity)
	}
	c.insts = make([]host.Inst, n)
	c.meta = make([]timing.DynInst, n)
	c.top = uint32(n)
	for i := 0; i < n; i++ {
		rec := sn.Insts[i*host.EncodedBytes:]
		if rec[0] == ccPoisonByte {
			c.insts[i] = host.Inst{Op: host.NumOps}
			continue
		}
		inst, err := host.Decode(rec)
		if err != nil {
			return fmt.Errorf("tol: code-cache snapshot slot %d: %w", i, err)
		}
		c.insts[i] = inst
	}

	c.byEntry = make(map[uint32]*Translation, len(sn.Translations))
	c.all = c.all[:0]
	c.BBCount, c.SBCount = 0, 0
	for i := range sn.Translations {
		ts := &sn.Translations[i]
		lo, hi := c.slotOf(ts.HostEntry), c.slotOf(ts.HostEnd)
		if ts.HostEntry < mem.CodeCacheBase || hi > uint32(n) || lo >= hi {
			return fmt.Errorf("tol: translation %#x-%#x outside snapshot arena", ts.HostEntry, ts.HostEnd)
		}
		tr := &Translation{TransDesc: ts.TransDesc, ProfSlot: ts.ProfSlot, lastUse: ts.LastUse,
			Exits: make(map[uint32]*ExitInfo, len(ts.Exits))}
		tr.GuestPCs = append([]uint32(nil), ts.GuestPCs...)
		for _, ex := range ts.Exits {
			info := ex.ExitInfo
			tr.Exits[ex.PC] = &info
		}
		if c.byEntry[tr.HostEntry] != nil {
			return fmt.Errorf("tol: duplicate translation entry %#x in snapshot", tr.HostEntry)
		}
		c.byEntry[tr.HostEntry] = tr
		c.all = append(c.all, tr) // snapshot order is address order
		if tr.Kind == KindBB {
			c.BBCount++
		} else {
			c.SBCount++
		}
		for s := lo; s < hi; s++ {
			o, comp := tr.OwnerComp(c.PCOf(s))
			c.rebuildMeta(s, o, comp)
		}
	}
	// Second pass: resolve incoming chain references now that every
	// translation exists.
	for i := range sn.Translations {
		ts := &sn.Translations[i]
		tr := c.byEntry[ts.HostEntry]
		for _, rs := range ts.Incoming {
			from := c.byEntry[rs.From]
			if from == nil {
				return fmt.Errorf("tol: chain ref from %#x into %#x: source not in snapshot", rs.From, ts.HostEntry)
			}
			orig, err := host.Decode(rs.Orig)
			if err != nil {
				return fmt.Errorf("tol: chain ref at %#x: %w", rs.PC, err)
			}
			ref := chainRef{from: from, pc: rs.PC, orig: orig}
			switch {
			case rs.EntryRedirect:
				// exit stays nil: unlink deletes the synthetic map entry.
			case rs.DanglingExit:
				ref.exit = &ExitInfo{}
			default:
				ref.exit = from.Exits[rs.PC]
				if ref.exit == nil {
					return fmt.Errorf("tol: chain ref at %#x references missing exit of %#x", rs.PC, rs.From)
				}
			}
			tr.incoming = append(tr.incoming, ref)
		}
	}

	for _, ext := range sn.Free {
		if ext.Start >= ext.End || ext.End > uint32(n) {
			return fmt.Errorf("tol: free extent [%d,%d) outside snapshot arena", ext.Start, ext.End)
		}
	}
	c.free = append(c.free[:0], sn.Free...)
	c.used = sn.Used
	c.peak = sn.Peak
	c.useClock = sn.UseClock
	return nil
}

// restore rebuilds the translation table from its sparse snapshot. The
// live and occupied counts are counted from the slots, not read from
// the snapshot, and a table at Insert's fill bound is rejected.
func (t *transTable) restore(sn *TransTableSnap) error {
	clear(t.pages[:])
	t.live, t.occ = 0, 0
	for _, s := range sn.Slots {
		if s.Idx >= transTableEntries || s.Key == 0 || t.key(s.Idx) != 0 {
			return fmt.Errorf("tol: translation-table snapshot slot %d out of range, empty or repeated", s.Idx)
		}
		t.set(s.Idx, s.Key, s.Val)
		if t.occ++; s.Key != ttTombstone {
			t.live++
		}
	}
	if t.occ >= ttMaxOcc {
		return fmt.Errorf("tol: translation-table snapshot holds %d slots, the fill bound is %d", t.occ, ttMaxOcc)
	}
	return nil
}

// restore rebuilds the profile-table slot directory; the counter values
// are already back in host memory. Every slot index must be one the
// allocator handed out (below next), in the snapshot's allocation
// order, so none appears twice.
func (p *profileTable) restore(sn *ProfileSnap) error {
	if sn.Next > p.maxLen {
		return fmt.Errorf("tol: profile snapshot allocates %d slots, the table holds %d", sn.Next, p.maxLen)
	}
	p.slots = make(map[uint32]uint32, len(sn.Slots))
	for i, s := range sn.Slots {
		if s.Slot >= sn.Next || i > 0 && s.Slot <= sn.Slots[i-1].Slot {
			return fmt.Errorf("tol: profile snapshot slot %d is unallocated, repeated or out of order", s.Slot)
		}
		p.slots[s.Guest] = s.Slot
	}
	p.next = sn.Next
	return nil
}
