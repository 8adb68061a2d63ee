package timing

// stridePrefetcher is a PC-indexed stride prefetcher attached to the
// L1 data cache (Table I: 256 entries). When a load/store at a given PC
// exhibits a stable address stride, the next block is prefetched.
type stridePrefetcher struct {
	mask    uint32
	tags    []uint32
	last    []uint32
	stride  []int32
	conf    []uint8
	Issued  uint64 // prefetches issued
	enabled bool
}

// newStridePrefetcher creates a prefetcher with the given entry count
// (a power of two). Zero entries disables prefetching.
func newStridePrefetcher(entries int) stridePrefetcher {
	if entries == 0 {
		return stridePrefetcher{}
	}
	if !pow2(entries) {
		panic("timing: prefetcher entries must be a power of two")
	}
	return stridePrefetcher{
		mask:    uint32(entries - 1),
		tags:    make([]uint32, entries),
		last:    make([]uint32, entries),
		stride:  make([]int32, entries),
		conf:    make([]uint8, entries),
		enabled: true,
	}
}

// Observe records a data access by the instruction at pc and returns
// the address to prefetch, if any (0 means no prefetch; address 0 is
// never a valid prefetch candidate in the modeled layout).
func (p *stridePrefetcher) Observe(pc, addr uint32) uint32 {
	if !p.enabled {
		return 0
	}
	idx := (pc >> 2) & p.mask
	key := pc
	if p.tags[idx] != key {
		p.tags[idx] = key
		p.last[idx] = addr
		p.stride[idx] = 0
		p.conf[idx] = 0
		return 0
	}
	d := int32(addr - p.last[idx])
	p.last[idx] = addr
	if d == 0 {
		return 0
	}
	if d == p.stride[idx] {
		if p.conf[idx] < 3 {
			p.conf[idx]++
		}
	} else {
		p.stride[idx] = d
		p.conf[idx] = 0
		return 0
	}
	if p.conf[idx] >= 2 {
		p.Issued++
		return addr + uint32(d)
	}
	return 0
}
