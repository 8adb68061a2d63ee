package timing

import "repro/internal/mem"

// plruTree implements tree-based pseudo-LRU replacement for power-of-two
// associativities up to 16 ways. The tree is stored as a bit field: bit
// i is the direction bit of internal node i (0 = left subtree is older).
type plruTree uint16

// victim returns the way the PLRU tree currently designates for
// eviction (following the direction bits), for a tree over `ways` ways.
func (t plruTree) victim(ways int) int {
	node := 0
	idx := 0
	for levelWays := ways; levelWays > 1; levelWays /= 2 {
		bit := (t >> node) & 1
		if bit == 0 {
			// Left subtree is the older one; descend left.
			node = 2*node + 1
		} else {
			idx += levelWays / 2
			node = 2*node + 2
		}
	}
	return idx
}

// touch updates the tree so `way` becomes most-recently used.
func (t *plruTree) touch(way, ways int) {
	node := 0
	lo, hi := 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			// Accessed left: point victim bit at right subtree.
			*t |= 1 << node
			node = 2*node + 1
			hi = mid
		} else {
			*t &^= 1 << node
			node = 2*node + 2
			lo = mid
		}
	}
}

type cacheLine struct {
	tag   uint32
	valid bool
}

// CacheStats counts accesses and misses, split by owner.
type CacheStats struct {
	Accesses [NumOwners]uint64 `json:"accesses"`
	Misses   [NumOwners]uint64 `json:"misses"`
}

// MissRate returns the total miss rate across owners.
func (s *CacheStats) MissRate() float64 {
	a := s.Accesses[OwnerApp] + s.Accesses[OwnerTOL]
	if a == 0 {
		return 0
	}
	return float64(s.Misses[OwnerApp]+s.Misses[OwnerTOL]) / float64(a)
}

// OwnerMissRate returns the miss rate of one owner's accesses.
func (s *CacheStats) OwnerMissRate(o Owner) float64 {
	if s.Accesses[o] == 0 {
		return 0
	}
	return float64(s.Misses[o]) / float64(s.Accesses[o])
}

// setAssoc is the one set-associative array of the timing model: the
// caches, the TLB levels (caches of pages) and the BTB are all built on
// it. Lines are way-major within a set; each set keeps a tree-PLRU. It
// stores keys only, so a structure that needs a payload (the BTB's
// targets) keeps it in a slice indexed by the slot find and fill
// return.
type setAssoc struct {
	lines   []cacheLine
	plru    []plruTree
	assoc   int
	setMask uint32
}

// newSetAssoc builds an array of entries lines in assoc-way sets. It
// panics on a geometry Config.Validate rejects.
func newSetAssoc(entries, assoc int) setAssoc {
	if err := geometry("set-associative", entries, assoc); err != nil {
		panic(err)
	}
	sets := entries / assoc
	return setAssoc{
		lines:   make([]cacheLine, entries),
		plru:    make([]plruTree, sets),
		assoc:   assoc,
		setMask: uint32(sets - 1),
	}
}

// access probes for key and fills it on a miss, counting the access
// (and the miss) for owner in st. It reports a hit. It is the hot path
// of every cache access, so it probes inline rather than via find.
func (a *setAssoc) access(key uint32, owner Owner, st *CacheStats) bool {
	set := int(key & a.setMask)
	base := set * a.assoc
	st.Accesses[owner]++
	for w := 0; w < a.assoc; w++ {
		if l := &a.lines[base+w]; l.valid && l.tag == key {
			a.plru[set].touch(w, a.assoc)
			return true
		}
	}
	st.Misses[owner]++
	a.fill(key)
	return false
}

// find returns the slot holding key, refreshing its PLRU state, or -1.
func (a *setAssoc) find(key uint32) int {
	set := int(key & a.setMask)
	base := set * a.assoc
	for w := 0; w < a.assoc; w++ {
		if l := &a.lines[base+w]; l.valid && l.tag == key {
			a.plru[set].touch(w, a.assoc)
			return base + w
		}
	}
	return -1
}

// has reports whether key is present without touching any state.
func (a *setAssoc) has(key uint32) bool {
	base := int(key&a.setMask) * a.assoc
	for _, l := range a.lines[base : base+a.assoc] {
		if l.valid && l.tag == key {
			return true
		}
	}
	return false
}

// fill installs key in its set, in the first invalid way or else in
// the PLRU victim, makes it most-recently used and returns its slot.
func (a *setAssoc) fill(key uint32) int {
	set := int(key & a.setMask)
	base := set * a.assoc
	w := 0
	for w < a.assoc && a.lines[base+w].valid {
		w++
	}
	if w == a.assoc {
		w = a.plru[set].victim(a.assoc)
	}
	a.lines[base+w] = cacheLine{tag: key, valid: true}
	a.plru[set].touch(w, a.assoc)
	return base + w
}

// cache is a set-associative cache of blocks that counts its accesses
// into a CacheStats it does not own (a counter of the simulator's
// Result). It tracks line presence only (no data), which is all the
// timing model needs. A TLB level is a cache whose blocks are pages
// (see tlbCache).
type cache struct {
	setAssoc
	blockBits uint
	stats     *CacheStats
}

// newCache builds a cache from its configuration, which must pass
// Config.Validate, counting into stats.
func newCache(cfg CacheConfig, stats *CacheStats) cache {
	c := cache{setAssoc: newSetAssoc(cfg.Size/cfg.BlockSize, cfg.Assoc), stats: stats}
	for 1<<c.blockBits < cfg.BlockSize {
		c.blockBits++
	}
	return c
}

// tlbCache is the cache configuration of a TLB level: one page per line.
func tlbCache(t TLBConfig) CacheConfig {
	return CacheConfig{Size: t.Entries * mem.PageSize, BlockSize: mem.PageSize, Assoc: t.Assoc}
}

// Lookup probes the cache without modifying state and reports a hit.
func (c *cache) Lookup(addr uint32) bool { return c.has(addr >> c.blockBits) }

// Access performs an access for the given owner: on a hit the PLRU
// state is refreshed; on a miss the PLRU victim is replaced. It returns
// whether the access hit.
func (c *cache) Access(addr uint32, owner Owner) bool {
	return c.access(addr>>c.blockBits, owner, c.stats)
}

// Insert fills a line without counting an access (used by prefetches).
func (c *cache) Insert(addr uint32) { c.fill(addr >> c.blockBits) }

// BlockAddr returns the block-aligned address containing addr.
func (c *cache) BlockAddr(addr uint32) uint32 { return addr >> c.blockBits << c.blockBits }
