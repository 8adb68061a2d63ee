package tol

import (
	"errors"
	"fmt"

	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/timing"
)

// TransKind distinguishes basic-block translations from superblocks.
type TransKind uint8

// Translation kinds.
const (
	KindBB TransKind = iota
	KindSB
)

func (k TransKind) String() string {
	if k == KindBB {
		return "bb"
	}
	return "sb"
}

// ExitReason explains why control leaves a translation.
type ExitReason uint8

// Exit reasons.
const (
	ExitFallthrough ExitReason = iota // block end, static target
	ExitTaken                         // direct branch taken, static target
	ExitIndirect                      // IBTC miss — guest target in RAppS0
	ExitIBTCHit                       // IBTC hit jalr — leaves without TOL
	ExitPromote                       // BBM instrumentation crossed SBth
	ExitHalt                          // guest halt reached
	ExitSelfLoop                      // superblock loop back to own entry
)

var exitNames = [...]string{"fall", "taken", "indirect", "ibtc-hit", "promote", "halt", "selfloop"}

func (r ExitReason) String() string {
	if int(r) < len(exitNames) {
		return exitNames[r]
	}
	return "exit?"
}

// ExitInfo describes one exit site of a translation, keyed by the host
// PC of the exiting control transfer. Retired is how many guest
// instructions have architecturally completed when control leaves
// through this exit; the engine uses it for co-simulation and for the
// per-mode dynamic instruction accounting of Figure 5b.
type ExitInfo struct {
	Reason      ExitReason
	Retired     int
	GuestTarget uint32 // static guest target; 0 when dynamic
	Dynamic     bool   // target known only at run time
	Chained     bool   // patched to jump directly to another translation
}

// chainRef records one incoming patch into a translation: the source
// translation whose code was patched to jump here, the patched slot,
// and the original instruction to restore when this translation is
// evicted. exit is the chained exit descriptor of the source (nil for
// entry-redirect patches, whose synthetic exit the engine registers
// after patching and which is deleted again on unlink).
type chainRef struct {
	from *Translation
	pc   uint32
	orig host.Inst
	exit *ExitInfo
}

// Translation is one code-cache entry: a translated basic block or an
// optimized superblock.
type Translation struct {
	Kind       TransKind
	GuestEntry uint32
	GuestLen   int      // guest instructions covered (static)
	GuestPCs   []uint32 // guest PC of each covered instruction
	HostEntry  uint32
	HostEnd    uint32 // exclusive

	// Region boundaries for owner attribution: [HostEntry, BodyStart)
	// is TOL-owned instrumentation; [BodyStart, StubStart) is
	// application code; [StubStart, HostEnd) is TOL-owned exit glue.
	BodyStart uint32
	StubStart uint32

	Exits map[uint32]*ExitInfo // keyed by host PC of the exit branch

	// ProfSlot is the profile counter address for BBM instrumentation
	// (0 for superblocks).
	ProfSlot uint32

	// incoming lists the chain patches other translations hold into
	// this one; eviction restores them so no surviving code can jump
	// into freed cache space.
	incoming []chainRef

	// lastUse is the eviction-clock stamp of the most recent entry into
	// this translation (see CodeCache.Touch); the lru-translation
	// policy orders victims by it.
	lastUse uint64
}

// LastUse returns the eviction-clock stamp of the most recent entry
// into the translation. Placement itself counts as the first touch,
// so the stamp is always nonzero and unique per translation. Exposed
// for externally registered eviction policies.
func (tr *Translation) LastUse() uint64 { return tr.lastUse }

// OwnerComp returns the owner and component attribution for a host PC
// inside this translation.
func (tr *Translation) OwnerComp(pc uint32) (timing.Owner, timing.Component) {
	switch {
	case pc < tr.BodyStart:
		return timing.OwnerTOL, timing.CompBBM // profiling instrumentation
	case pc < tr.StubStart:
		return timing.OwnerApp, timing.CompApp
	default:
		return timing.OwnerTOL, timing.CompTOLOther // exit/transition glue
	}
}

// CacheConfig bounds the translation code cache. The zero value is the
// classic unbounded arena: translations accumulate until the
// architectural code-cache region fills, and nothing is ever evicted —
// the pre-characterization behaviour, kept cycle-identical.
type CacheConfig struct {
	// CapacityInsts bounds the cache to this many host instruction
	// slots (0 = unbounded). Bounded caches evict under pressure via
	// the configured Policy and the engine transparently retranslates
	// evicted code on re-entry.
	CapacityInsts int `json:",omitempty"`

	// Policy names the eviction policy consulted when a bounded cache
	// cannot fit a new translation: "flush-all" (the classic
	// co-designed-VM full flush, the default when empty), "fifo-region"
	// (circular region reclamation), or "lru-translation" (single
	// least-recently-entered victim). See RegisteredEvictionPolicies.
	Policy string `json:",omitempty"`
}

// MinCacheCapacityInsts is the smallest accepted bounded capacity.
// It does not guarantee that every translation fits — a flags-heavy
// full-length block can expand well past it — but a translation
// larger than the whole cache is not fatal: Alloc reports
// ErrTranslationTooLarge and the engine leaves that block
// interpreted (see Engine.translateBB), as a real TOL would.
const MinCacheCapacityInsts = 256

// Validate rejects degenerate cache bounds and unknown policy names.
func (cc *CacheConfig) Validate() error {
	if cc.CapacityInsts < 0 {
		return fmt.Errorf("tol: CacheConfig.CapacityInsts must be >= 0 (got %d)", cc.CapacityInsts)
	}
	if cc.CapacityInsts == 0 {
		if cc.Policy != "" {
			return fmt.Errorf("tol: cache policy %q requires CapacityInsts > 0 (the unbounded cache never evicts)", cc.Policy)
		}
		return nil
	}
	if cc.CapacityInsts < MinCacheCapacityInsts {
		return fmt.Errorf("tol: CacheConfig.CapacityInsts %d below minimum %d (one worst-case translation)",
			cc.CapacityInsts, MinCacheCapacityInsts)
	}
	if cc.CapacityInsts > int(archCapacityInsts) {
		return fmt.Errorf("tol: CacheConfig.CapacityInsts %d exceeds the architectural code-cache region (%d insts)",
			cc.CapacityInsts, archCapacityInsts)
	}
	if _, err := cc.NewEvictionPolicy(); err != nil {
		return err
	}
	return nil
}

// EvictEvent describes one eviction batch to the OnEvict observer.
type EvictEvent struct {
	// Victims are the unlinked translations, in policy order.
	Victims []*Translation
	// RestoredPCs are the host PCs of chain patches in surviving
	// translations that were repaired back to their exit stubs.
	RestoredPCs []uint32
	// Flush reports that no translation survived the batch (the cache
	// was reset to empty — always true for the flush-all policy).
	Flush bool
}

// CodeCache stores translated host code at simulated addresses in the
// code-cache region. It implements host.CodeStore for the functional
// CPU and supports patching for chaining.
//
// Unbounded (NewCodeCache), it is the append-only arena of the
// original infrastructure. Bounded (NewBoundedCodeCache), it becomes a
// managed resource: placements that do not fit consult the eviction
// policy, evicted translations are unlinked from every structure that
// can reach them (translation table, IBTC, chain patches in surviving
// code), and the freed extents are reused first-fit.
type CodeCache struct {
	insts []host.Inst
	// meta is the threaded-dispatch arena: for every placed instruction
	// slot, the precomputed timing.DynInst template (class, scoreboard
	// operands, branch/memory kind, owner and component attribution).
	// The engine's translated-execution loop copies meta[slot] and
	// patches only the per-execution MemAddr/Taken/Target fields, so
	// re-entering BBM/SBM code performs no per-instruction decoding or
	// attribution work. Maintained in lockstep with insts by PlaceAt,
	// Patch and Evict (chain restore).
	meta    []timing.DynInst
	top     uint32 // bump-allocation frontier (== len(insts))
	byEntry map[uint32]*Translation
	all     []*Translation // sorted by HostEntry

	// Bounded-cache management. policy == nil means unbounded.
	capacity uint32
	policy   EvictionPolicy
	free     []extent
	used     int
	peak     int

	// Lookup structures unlinked on eviction (set by Link).
	tt *TransTable
	ib *IBTC

	// useClock drives the lru-translation recency stamps.
	useClock uint64

	// OnEvict, when non-nil, observes every eviction batch after the
	// unlinking completed. The engine uses it to bill eviction work
	// through the cost model and to maintain its statistics.
	OnEvict func(EvictEvent)

	// Stats.
	BBCount int
	SBCount int
}

// extent is a free range of instruction slots, [start, end).
type extent struct {
	start, end uint32
}

// NewCodeCache returns an empty unbounded code cache.
func NewCodeCache() *CodeCache {
	return &CodeCache{
		byEntry:  make(map[uint32]*Translation),
		capacity: archCapacityInsts,
	}
}

// arenaInitSlots is the arena size the first placement allocates
// (capped by the cache capacity); from there the arenas double, so
// short runs stay cheap to construct and long runs amortize the growth
// copies.
const arenaInitSlots = 256

// extend grows both arenas by n zeroed slots at the bump frontier.
func (c *CodeCache) extend(n int) {
	old := len(c.insts)
	if need := old + n; need > cap(c.insts) {
		newCap := max(need, 2*cap(c.insts), min(int(c.capacity), arenaInitSlots))
		c.insts = append(make([]host.Inst, 0, newCap), c.insts...)
		c.meta = append(make([]timing.DynInst, 0, newCap), c.meta...)
	}
	c.insts = c.insts[:old+n]
	c.meta = c.meta[:old+n]
	// Slots past the frontier can hold a flushed generation's poison.
	clear(c.insts[old:])
	clear(c.meta[old:])
}

// NewBoundedCodeCache returns an empty cache bounded per cfg that
// evicts through the given policy instance. The policy instance must
// not be shared between caches (policies may be stateful).
func NewBoundedCodeCache(cfg CacheConfig, policy EvictionPolicy) *CodeCache {
	c := NewCodeCache()
	if cfg.CapacityInsts > 0 {
		c.capacity = uint32(cfg.CapacityInsts)
		c.policy = policy
	}
	return c
}

// Link connects the cache to the lookup structures that hold
// references into it, so eviction can unlink them. A nil argument
// skips that structure (useful in unit tests).
func (c *CodeCache) Link(tt *TransTable, ib *IBTC) {
	c.tt, c.ib = tt, ib
}

// archCapacityInsts is the architectural code-cache region capacity in
// instructions — the hard bound of the unbounded cache and the ceiling
// of CacheConfig.CapacityInsts.
const archCapacityInsts = mem.CodeCacheSize / host.InstBytes

// Capacity returns the effective capacity in instruction slots.
func (c *CodeCache) Capacity() int { return int(c.capacity) }

// Bounded reports whether the cache evicts under pressure.
func (c *CodeCache) Bounded() bool { return c.policy != nil }

// PCOf converts an instruction slot index to its host PC.
func (c *CodeCache) PCOf(slot uint32) uint32 {
	return mem.CodeCacheBase + slot*host.InstBytes
}

// slotOf converts a host PC to a slot index.
func (c *CodeCache) slotOf(pc uint32) uint32 {
	return (pc - mem.CodeCacheBase) / host.InstBytes
}

// Contains reports whether pc falls inside the code-cache region.
func (c *CodeCache) Contains(pc uint32) bool {
	return pc >= mem.CodeCacheBase && pc < mem.CodeCacheBase+mem.CodeCacheSize
}

// rebuildMeta recomputes the dispatch template for one placed slot
// with the given owner/component attribution. Called whenever the
// instruction at the slot changes (placement, chain patch, chain
// restore on eviction).
func (c *CodeCache) rebuildMeta(slot uint32, owner timing.Owner, comp timing.Component) {
	d := &c.meta[slot]
	timing.TemplateFromHost(d, c.PCOf(slot), &c.insts[slot])
	d.Owner, d.Comp = owner, comp
}

// InstAt implements host.CodeStore.
func (c *CodeCache) InstAt(pc uint32) *host.Inst {
	if !c.Contains(pc) {
		return nil
	}
	slot := c.slotOf(pc)
	if slot >= uint32(len(c.insts)) {
		return nil
	}
	return &c.insts[slot]
}

// Alloc reserves n instruction slots and returns the host PC of the
// reservation, evicting through the configured policy when a bounded
// cache is full. Emitters seal their exit-stub offsets against the
// returned PC before handing the code to PlaceAt.
func (c *CodeCache) Alloc(n int) (uint32, error) {
	if n <= 0 {
		return 0, fmt.Errorf("tol: alloc of %d insts", n)
	}
	if uint32(n) > c.capacity {
		return 0, fmt.Errorf("%w: %d insts into %d", ErrTranslationTooLarge, n, c.capacity)
	}
	for {
		if slot, ok := c.takeFree(uint32(n)); ok {
			return c.PCOf(slot), nil
		}
		if c.top+uint32(n) <= c.capacity {
			slot := c.top
			c.top += uint32(n)
			c.extend(n)
			return c.PCOf(slot), nil
		}
		if c.policy == nil {
			return 0, fmt.Errorf("tol: code cache full (%d insts)", len(c.insts))
		}
		victims := c.policy.Victims(c, n)
		if len(victims) == 0 {
			return 0, fmt.Errorf("tol: eviction policy %q freed nothing for %d insts (occupancy %d/%d)",
				c.policy.Name(), n, c.used, c.capacity)
		}
		if c.Evict(victims) == 0 {
			return 0, fmt.Errorf("tol: eviction policy %q returned only dead victims", c.policy.Name())
		}
	}
}

// takeFree carves n slots from the lowest-addressed free extent that
// fits (first-fit).
func (c *CodeCache) takeFree(n uint32) (uint32, bool) {
	for i := range c.free {
		e := &c.free[i]
		if e.end-e.start >= n {
			slot := e.start
			e.start += n
			if e.start == e.end {
				c.free = append(c.free[:i], c.free[i+1:]...)
			}
			return slot, true
		}
	}
	return 0, false
}

// addFree returns [start, end) to the free list, keeping it sorted and
// coalesced.
func (c *CodeCache) addFree(start, end uint32) {
	i := 0
	for i < len(c.free) && c.free[i].start < start {
		i++
	}
	c.free = append(c.free, extent{})
	copy(c.free[i+1:], c.free[i:])
	c.free[i] = extent{start, end}
	// Coalesce with the right neighbour, then the left.
	if i+1 < len(c.free) && c.free[i].end == c.free[i+1].start {
		c.free[i].end = c.free[i+1].end
		c.free = append(c.free[:i+1], c.free[i+2:]...)
	}
	if i > 0 && c.free[i-1].end == c.free[i].start {
		c.free[i-1].end = c.free[i].end
		c.free = append(c.free[:i], c.free[i+1:]...)
	}
}

// PlaceAt installs a translation's code at a PC previously returned by
// Alloc for exactly len(code) slots, fixing up its host addresses. The
// translation's HostEntry/BodyStart/StubStart/Exits must be expressed
// as offsets (in instructions) before placement; PlaceAt rewrites them
// to absolute PCs.
func (c *CodeCache) PlaceAt(base uint32, tr *Translation, code []host.Inst,
	bodyStartIdx, stubStartIdx int, exitsAtIdx map[int]*ExitInfo) {
	slot := c.slotOf(base)
	if int(slot)+len(code) > len(c.insts) {
		panic(fmt.Sprintf("tol: PlaceAt(%#x, %d insts) outside the allocated arena (%d slots)",
			base, len(code), len(c.insts)))
	}
	copy(c.insts[slot:], code)

	tr.HostEntry = base
	tr.HostEnd = base + uint32(len(code))*host.InstBytes
	tr.BodyStart = c.PCOf(slot + uint32(bodyStartIdx))
	tr.StubStart = c.PCOf(slot + uint32(stubStartIdx))
	for i := range code {
		s := slot + uint32(i)
		o, comp := tr.OwnerComp(c.PCOf(s))
		c.rebuildMeta(s, o, comp)
	}
	tr.Exits = make(map[uint32]*ExitInfo, len(exitsAtIdx))
	for idx, e := range exitsAtIdx {
		tr.Exits[c.PCOf(slot+uint32(idx))] = e
	}
	c.byEntry[tr.HostEntry] = tr
	c.insertSorted(tr)
	c.used += len(code)
	if c.used > c.peak {
		c.peak = c.used
	}
	c.Touch(tr)
	if tr.Kind == KindBB {
		c.BBCount++
	} else {
		c.SBCount++
	}
}

// insertSorted adds tr to the placement list, keeping it sorted by
// HostEntry so FindByPC can binary-search.
func (c *CodeCache) insertSorted(tr *Translation) {
	lo, hi := 0, len(c.all)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.all[mid].HostEntry < tr.HostEntry {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.all = append(c.all, nil)
	copy(c.all[lo+1:], c.all[lo:])
	c.all[lo] = tr
}

// Touch stamps a translation with the current eviction clock; the
// engine calls it on every entry so the lru-translation policy sees
// real recency. O(1), no effect on the modeled streams.
func (c *CodeCache) Touch(tr *Translation) {
	c.useClock++
	tr.lastUse = c.useClock
}

// Evict unlinks the given translations from the cache and from every
// structure that can reach them: their TransTable entries are deleted,
// IBTC lines caching their entry points are invalidated, and chain
// patches from surviving translations are restored to their original
// exit stubs. Freed slots are poisoned so any dangling jump faults in
// the functional CPU instead of executing stale code. Returns the
// number of translations actually evicted (victims no longer live are
// skipped).
func (c *CodeCache) Evict(victims []*Translation) int {
	var evicted []*Translation
	var ibtcRanges [][2]uint32
	for _, tr := range victims {
		if c.byEntry[tr.HostEntry] != tr {
			continue // already gone (duplicate or stale victim)
		}
		delete(c.byEntry, tr.HostEntry)
		c.removeSorted(tr)
		if c.tt != nil {
			c.tt.Delete(tr.GuestEntry, tr.HostEntry)
		}
		if c.ib != nil {
			ibtcRanges = append(ibtcRanges, [2]uint32{tr.HostEntry, tr.HostEnd})
		}
		lo, hi := c.slotOf(tr.HostEntry), c.slotOf(tr.HostEnd)
		for s := lo; s < hi; s++ {
			c.insts[s] = host.Inst{Op: host.NumOps} // poison: faults on execution
			c.meta[s] = timing.DynInst{}
		}
		c.addFree(lo, hi)
		c.used -= int(hi - lo)
		if tr.Kind == KindBB {
			c.BBCount--
		} else {
			c.SBCount--
		}
		evicted = append(evicted, tr)
	}
	if len(evicted) == 0 {
		return 0
	}
	if c.ib != nil {
		c.ib.InvalidateHostRanges(ibtcRanges) // one table pass per batch
	}
	// Repair chain patches from survivors into the victims. Victims are
	// already unindexed, so refs whose source died (in this batch or
	// earlier) are recognized and skipped.
	var restored []uint32
	for _, tr := range evicted {
		for _, ref := range tr.incoming {
			if c.byEntry[ref.from.HostEntry] != ref.from {
				continue
			}
			rslot := c.slotOf(ref.pc)
			c.insts[rslot] = ref.orig
			o, comp := ref.from.OwnerComp(ref.pc)
			c.rebuildMeta(rslot, o, comp)
			if ref.exit != nil {
				ref.exit.Chained = false
			} else {
				// Entry-redirect patch (BBM→SBM promotion): drop the
				// synthetic exit the engine registered on it.
				delete(ref.from.Exits, ref.pc)
			}
			restored = append(restored, ref.pc)
		}
		tr.incoming = nil
	}
	flush := len(c.all) == 0
	if flush {
		// Nothing survived: reset the arena so the bump frontier
		// restarts at the base (the classic full-flush shape).
		c.insts = c.insts[:0]
		c.meta = c.meta[:0]
		c.top = 0
		c.free = nil
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictEvent{Victims: evicted, RestoredPCs: restored, Flush: flush})
	}
	return len(evicted)
}

// removeSorted deletes tr from the sorted placement list.
func (c *CodeCache) removeSorted(tr *Translation) {
	lo, hi := 0, len(c.all)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.all[mid].HostEntry < tr.HostEntry {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.all) && c.all[lo] == tr {
		c.all = append(c.all[:lo], c.all[lo+1:]...)
	}
}

// EntryAt returns the translation whose entry point is pc, or nil.
func (c *CodeCache) EntryAt(pc uint32) *Translation {
	return c.byEntry[pc]
}

// FindByPC returns the translation containing pc, or nil, by
// binary-searching the address-sorted placement list.
func (c *CodeCache) FindByPC(pc uint32) *Translation {
	if !c.Contains(pc) {
		return nil
	}
	lo, hi := 0, len(c.all)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.all[mid].HostEnd <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.all) && pc >= c.all[lo].HostEntry && pc < c.all[lo].HostEnd {
		return c.all[lo]
	}
	return nil
}

// ErrUnplacedPatch reports a Patch against a slot that no placed
// translation owns — patching there would scribble on freed or
// never-allocated cache space.
var ErrUnplacedPatch = errors.New("tol: patch target not inside a placed translation")

// ErrTranslationTooLarge reports an Alloc request larger than the
// whole cache capacity, which no amount of eviction can satisfy. The
// engine treats it as non-fatal: the block stays interpreted.
var ErrTranslationTooLarge = errors.New("tol: translation exceeds code cache capacity")

// Patch replaces the instruction at host PC with a direct jump to
// target (chaining). pc must lie inside a live translation
// (ErrUnplacedPatch otherwise). When target is the entry of another
// live translation, the patch is recorded on it so eviction can
// restore the original instruction.
func (c *CodeCache) Patch(pc uint32, target uint32) error {
	src := c.FindByPC(pc)
	if src == nil {
		return fmt.Errorf("%w: %#x", ErrUnplacedPatch, pc)
	}
	slot := c.slotOf(pc)
	orig := c.insts[slot]
	// jal r0, offset — offset relative to the next instruction.
	off := int32(target) - int32(pc+host.InstBytes)
	c.insts[slot] = host.Inst{Op: host.Jal, Rd: host.RZero, Imm: off}
	o, comp := src.OwnerComp(pc)
	c.rebuildMeta(slot, o, comp)
	if dst := c.byEntry[target]; dst != nil && dst != src {
		dst.incoming = append(dst.incoming, chainRef{
			from: src, pc: pc, orig: orig, exit: src.Exits[pc],
		})
	}
	return nil
}

// UsedInsts returns the number of occupied instruction slots.
func (c *CodeCache) UsedInsts() int { return c.used }

// OccupancyPeak returns the high-water mark of occupied slots.
func (c *CodeCache) OccupancyPeak() int { return c.peak }

// Translations returns all placed translations in address order. The
// returned slice is the cache's own index — callers must not mutate
// it.
func (c *CodeCache) Translations() []*Translation { return c.all }
