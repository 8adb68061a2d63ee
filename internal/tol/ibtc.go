package tol

import "repro/internal/mem"

// ibtc is the Indirect Branch Translation Cache: a direct-mapped table
// of (guest target, host entry) pairs probed inline by translated code.
// Because the probe sequence is real host code, the table contents must
// live in simulated host memory; this type wraps the raw memory with
// typed accessors for the TOL side (fills and invalidations).
//
// The inline probe costs ~10 host instructions on a hit; a miss
// transitions to TOL for a code cache lookup and an IBTC update —
// "still, the overhead is in the order of tens of RISC instructions"
// as the paper puts it.
type ibtc struct {
	m mem.Memory
	IBTCCounters

	// entry mirrors the host-entry word of every line (0 = empty), so
	// the eviction-time unlink scans a Go array instead of reading 256
	// words of simulated memory per batch. Translated code only ever
	// reads the table; every write goes through Fill, Invalidate and
	// InvalidateHostRanges, which keep the mirror exact.
	entry [ibtcEntries]uint32
}

// IBTCCounters counts the IBTC's fills, hits and misses. It is all of
// the IBTC a snapshot captures: the table lives in host memory.
type IBTCCounters struct {
	Fills uint64 `json:"fills"`
	Hits  uint64 `json:"hits"` // counted by the engine at probe sites
	Miss  uint64 `json:"miss"`
}

// newIBTC wraps host memory with IBTC accessors. Entries start zeroed
// (tag 0 never matches a real guest target because guest code is
// loaded well above address 0).
func newIBTC(m mem.Memory) *ibtc {
	return &ibtc{m: m}
}

// slotFor returns the IBTC slot index of a guest target.
func ibtcSlotFor(target uint32) uint32 {
	return (target >> 2) & ibtcMask
}

// write stores one line in simulated memory and in the mirror.
func (c *ibtc) write(slot, tag, hostEntry uint32) {
	addr := ibtcSlotAddr(slot)
	c.m.Write32(addr, tag)
	c.m.Write32(addr+4, hostEntry)
	c.entry[slot] = hostEntry
}

// Fill installs the (guest target → host entry) pair.
func (c *ibtc) Fill(target, hostEntry uint32) {
	c.write(ibtcSlotFor(target), target, hostEntry)
	c.Fills++
}

// Peek reads the entry that a probe of target would see.
func (c *ibtc) Peek(target uint32) (tag, hostEntry uint32) {
	addr := ibtcSlotAddr(ibtcSlotFor(target))
	return c.m.Read32(addr), c.m.Read32(addr + 4)
}

// Invalidate clears the slot holding target, if it matches.
func (c *ibtc) Invalidate(target uint32) {
	slot := ibtcSlotFor(target)
	if c.m.Read32(ibtcSlotAddr(slot)) == target {
		c.write(slot, 0, 0)
	}
}

// InvalidateHostRanges clears every line whose cached host entry falls
// in any of the given [lo, hi) ranges — the unlink step of code-cache
// eviction, which must leave no line pointing into freed cache space.
// One pass over the mirror serves a whole eviction batch. Returns the
// number of lines cleared. (Empty lines cache host entry 0, far below
// the code-cache region, so they are never matched.)
func (c *ibtc) InvalidateHostRanges(ranges [][2]uint32) int {
	if len(ranges) == 0 {
		return 0
	}
	// The unlink reads the table in the modeled machine, which makes its
	// page part of the touched-page set a snapshot captures — whether or
	// not any line was ever filled.
	c.m.Read32(mem.IBTCBase)
	n := 0
	for slot, he := range c.entry {
		if he == 0 {
			continue
		}
		for _, r := range ranges {
			if he >= r[0] && he < r[1] {
				c.write(uint32(slot), 0, 0)
				n++
				break
			}
		}
	}
	return n
}

// The whole table lies in the one page at mem.IBTCBase, which the
// page-set handling in InvalidateHostRanges and rebuild relies on.
const _ = uint(mem.PageSize - ibtcEntries*ibtcEntryBytes)

// rebuild re-derives the mirror from simulated memory (snapshot
// restore). It reads the table page only if it exists, so it adds
// nothing to the touched-page set.
func (c *ibtc) rebuild(s *mem.Sparse) {
	c.entry = [ibtcEntries]uint32{}
	if s.PageData(mem.IBTCBase>>12) == nil {
		return
	}
	for slot := range c.entry {
		c.entry[slot] = s.Read32(ibtcSlotAddr(uint32(slot)) + 4)
	}
}
