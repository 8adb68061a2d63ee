package tol

import "repro/internal/mem"

// profileTable manages the per-basic-block execution counters that BBM
// instrumentation code updates. The counters live in simulated host
// memory (the instrumentation load/add/store sequence is real host
// code); TOL reads them through this wrapper when deciding promotions
// and when ranking successors during superblock formation.
//
// Interpreter-side branch-target counters (pre-translation) are also
// allocated here so that the IM bookkeeping cost stream touches real
// profile-table addresses.
type profileTable struct {
	m      mem.Memory
	slots  map[uint32]uint32 // guest address -> slot index
	next   uint32
	maxLen uint32
}

// newProfileTable wraps host memory with profile accessors.
func newProfileTable(m mem.Memory) *profileTable {
	return &profileTable{
		m:      m,
		slots:  make(map[uint32]uint32),
		maxLen: (mem.IBTCBase - mem.ProfileTableBase) / profSlotBytes,
	}
}

// SlotAddr returns (allocating if needed) the host address of the
// counter slot for guest address g.
func (p *profileTable) SlotAddr(g uint32) uint32 {
	if idx, ok := p.slots[g]; ok {
		return profSlotAddr(idx)
	}
	if p.next >= p.maxLen {
		panic("tol: profile table exhausted")
	}
	idx := p.next
	p.next++
	p.slots[g] = idx
	return profSlotAddr(idx)
}

// Count reads the execution counter for guest address g (0 if never
// allocated).
func (p *profileTable) Count(g uint32) uint32 {
	idx, ok := p.slots[g]
	if !ok {
		return 0
	}
	return p.m.Read32(profSlotAddr(idx))
}

// Bump increments the counter for guest address g by one and returns
// the new value, allocating the slot if needed. Used for IM-side
// branch-target counting (the translated-code side increments via real
// instrumentation instructions instead).
func (p *profileTable) Bump(g uint32) uint32 {
	addr := p.SlotAddr(g)
	v := p.m.Read32(addr) + 1
	p.m.Write32(addr, v)
	return v
}

// Reset zeroes the counter for guest address g.
func (p *profileTable) Reset(g uint32) {
	if idx, ok := p.slots[g]; ok {
		p.m.Write32(profSlotAddr(idx), 0)
	}
}

// Allocated returns how many profile slots exist.
func (p *profileTable) Allocated() int { return len(p.slots) }
