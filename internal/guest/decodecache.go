package guest

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mem"
)

// decodeCacheEntries is the number of direct-mapped DecodeCache slots.
// x86 encodings are 1-7 bytes, so consecutive instructions land in
// distinct slots; 8192 entries cover hot regions far larger than any
// catalog benchmark's working set of static code.
const decodeCacheEntries = 8192

// decodePageSlots is how many consecutive slots share one lazily
// allocated backing page. Guest code is contiguous, so a run touches a
// dense range of slots and pages this small are mostly full; a short
// program pays for the few pages it executes instead of the whole
// table.
const (
	decodePageShift = 5
	decodePageSlots = 1 << decodePageShift
)

// decodePage backs decodePageSlots consecutive slots.
type decodePage struct {
	tags  [decodePageSlots]uint32 // EIP with its lowest index bit set (see lookup); 0 = empty
	insts [decodePageSlots]Inst
}

// DecodeCache memoizes fetch+decode of guest instructions by EIP, the
// per-step cost that dominates a tight interpreter loop. Guest code is
// immutable once loaded (the infrastructure assumes no self-modifying
// code — translations cache decoded guest instructions under the same
// assumption), so a decoded instruction can be replayed for every
// revisit of its address.
//
// The cache is direct-mapped: a colliding address simply overwrites
// the slot. Lookups are exact (tagged by full EIP), so collisions cost
// a re-decode, never a wrong instruction. Indexing drops the
// frontend's alignment bits (ISA.InstShift): a fixed four-byte
// encoding only ever presents PCs with the low two bits clear, and
// indexing by those bits would leave 3/4 of the slots permanently
// cold.
//
// Slots are backed by pages allocated on first fill, so constructing a
// cache costs the page directory only. A cache whose owner is done with
// it goes back through Release, and NewDecodeCache hands it out again
// with its pages kept and their tags cleared, so a run of short
// programs allocates the pages its largest program touches rather than
// the pages of every program.
type DecodeCache struct {
	isa   *ISA
	pages [decodeCacheEntries / decodePageSlots]*decodePage
	// fetch is the encoding buffer handed to the frontend's decoder. A
	// buffer passed through the DecodeAt function value escapes, so on
	// the stack it would be one heap allocation per miss.
	fetch [8]byte
}

// freeDecodeCaches holds released caches for NewDecodeCache, at most
// GOMAXPROCS of them: the default number of runs at once. It is a
// locked free list rather than a sync.Pool because a sync.Pool empties
// itself over two garbage collections, so whether a new cache were
// reused or allocated would turn on when the collector last ran, and
// identical runs would allocate different amounts.
var freeDecodeCaches struct {
	sync.Mutex
	list []*DecodeCache
}

// NewDecodeCache returns an empty decode cache for one frontend: a
// released one when the free list holds one, else a new one.
func NewDecodeCache(isa *ISA) *DecodeCache {
	f := &freeDecodeCaches
	f.Lock()
	defer f.Unlock()
	if n := len(f.list); n > 0 {
		c := f.list[n-1]
		f.list[n-1] = nil
		f.list = f.list[:n-1]
		c.isa = isa
		return c
	}
	return &DecodeCache{isa: isa}
}

// Release empties the cache and keeps it for NewDecodeCache (unless
// the free list is full, when the collector takes it). Every page's
// tags are cleared and the pages kept; the decoded instructions behind
// the cleared tags are never read again, since a slot hits only on its
// tag. The caller must not use c afterwards: its frontend is dropped,
// so a stray lookup panics rather than decoding into another owner's
// cache.
func (c *DecodeCache) Release() {
	for _, pg := range c.pages {
		if pg != nil {
			clear(pg.tags[:])
		}
	}
	c.isa = nil
	f := &freeDecodeCaches
	f.Lock()
	defer f.Unlock()
	if len(f.list) < runtime.GOMAXPROCS(0) {
		f.list = append(f.list, c)
	}
}

// lookup returns the cached instruction at eip, filling the slot on a
// miss. The pointer is valid until the next lookup.
//
// A slot's tag is the EIP with its lowest index bit forced on. The
// addresses that share a slot agree on every index bit, so the tag
// still tells them apart, and it is never 0, the empty tag: no
// address, 0xffffffff included, hits a slot that was never filled.
func (c *DecodeCache) lookup(eip uint32, m mem.Memory) (*Inst, error) {
	shift := c.isa.InstShift
	idx := (eip >> shift) & (decodeCacheEntries - 1)
	tag := eip | 1<<shift
	pg := c.pages[idx>>decodePageShift]
	slot := idx & (decodePageSlots - 1)
	if pg != nil && pg.tags[slot] == tag {
		return &pg.insts[slot], nil
	}
	inst, err := c.isa.fetchDecode(c.fetch[:c.isa.MaxInstSize], eip, m)
	if err != nil {
		return nil, err
	}
	if pg == nil {
		pg = new(decodePage)
		c.pages[idx>>decodePageShift] = pg
	}
	pg.tags[slot] = tag
	pg.insts[slot] = inst
	return &pg.insts[slot], nil
}

// Decode returns the instruction at eip, fetched and decoded at most
// once per residency in the cache — the translators' view of guest
// code, shared with Step so a block the interpreter already executed
// is translated without touching its encoding bytes again. A decode
// failure is the frontend decoder's error; the caller adds the address.
func (c *DecodeCache) Decode(eip uint32, m mem.Memory) (Inst, error) {
	inst, err := c.lookup(eip, m)
	if err != nil {
		return Inst{}, err
	}
	return *inst, nil
}

// Step is ISA.Step with fetch+decode served from the cache. Semantics
// and failure modes are identical on immutable code.
func (c *DecodeCache) Step(s *State, m mem.Memory, res *StepResult) error {
	inst, err := c.lookup(s.EIP, m)
	if err != nil {
		return fmt.Errorf("at eip=%#x: %w", s.EIP, err)
	}
	return stepDecoded(s, m, inst, res)
}
