// Package mem provides the sparse simulated memory used by both the
// authoritative guest emulator and the co-design component, plus the
// host address-space layout of the modeled HW/SW co-designed processor.
//
// Memory is little-endian and organized as 4 KiB pages allocated on
// first touch, so multi-gigabyte address spaces cost only what is used.
package mem

import "fmt"

// PageSize is the size of a memory page in bytes. The data TLB in the
// timing simulator uses the same page granularity.
const PageSize = 4096

const (
	pageShift = 12
	pageMask  = PageSize - 1
)

// Memory is the minimal access interface shared by the emulators.
type Memory interface {
	Read8(addr uint32) uint8
	Read32(addr uint32) uint32
	Write8(addr uint32, v uint8)
	Write32(addr uint32, v uint32)
	Read64(addr uint32) uint64
	Write64(addr uint32, v uint64)
}

// Sparse is a sparse paged memory. The zero value is ready to use.
type Sparse struct {
	pages map[uint32]*[PageSize]byte

	// lastPageNum/lastPage cache the most recently touched page, which
	// captures the strong page locality of both interpreter state and
	// translated-code accesses.
	lastPageNum uint32
	lastPage    *[PageSize]byte
}

// NewSparse returns an empty sparse memory.
func NewSparse() *Sparse {
	return &Sparse{pages: make(map[uint32]*[PageSize]byte)}
}

func (s *Sparse) page(addr uint32) *[PageSize]byte {
	num := addr >> pageShift
	if s.lastPage != nil && s.lastPageNum == num {
		return s.lastPage
	}
	if s.pages == nil {
		s.pages = make(map[uint32]*[PageSize]byte)
	}
	p, ok := s.pages[num]
	if !ok {
		p = new([PageSize]byte)
		s.pages[num] = p
	}
	s.lastPageNum = num
	s.lastPage = p
	return p
}

// Read8 reads one byte.
func (s *Sparse) Read8(addr uint32) uint8 {
	return s.page(addr)[addr&pageMask]
}

// Write8 writes one byte.
func (s *Sparse) Write8(addr uint32, v uint8) {
	s.page(addr)[addr&pageMask] = v
}

// Read32 reads a little-endian 32-bit word. Accesses may straddle a
// page boundary; they are assembled bytewise in that case.
func (s *Sparse) Read32(addr uint32) uint32 {
	off := addr & pageMask
	if off <= PageSize-4 {
		p := s.page(addr)
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	return uint32(s.Read8(addr)) |
		uint32(s.Read8(addr+1))<<8 |
		uint32(s.Read8(addr+2))<<16 |
		uint32(s.Read8(addr+3))<<24
}

// Write32 writes a little-endian 32-bit word.
func (s *Sparse) Write32(addr uint32, v uint32) {
	off := addr & pageMask
	if off <= PageSize-4 {
		p := s.page(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	s.Write8(addr, byte(v))
	s.Write8(addr+1, byte(v>>8))
	s.Write8(addr+2, byte(v>>16))
	s.Write8(addr+3, byte(v>>24))
}

// Read64 reads a little-endian 64-bit word.
func (s *Sparse) Read64(addr uint32) uint64 {
	return uint64(s.Read32(addr)) | uint64(s.Read32(addr+4))<<32
}

// Write64 writes a little-endian 64-bit word.
func (s *Sparse) Write64(addr uint32, v uint64) {
	s.Write32(addr, uint32(v))
	s.Write32(addr+4, uint32(v>>32))
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (s *Sparse) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for b := out; len(b) > 0; {
		k := copy(b, s.page(addr)[addr&pageMask:])
		b, addr = b[k:], addr+uint32(k)
	}
	return out
}

// WriteBytes stores b starting at addr, one copy per page the range
// overlaps. Like bytewise writes it touches every such page, all-zero
// data included, so the touched-page set does not depend on contents.
func (s *Sparse) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		k := copy(s.page(addr)[addr&pageMask:], b)
		b, addr = b[k:], addr+uint32(k)
	}
}

// PageCount reports how many pages have been touched. Useful in tests
// and for footprint statistics.
func (s *Sparse) PageCount() int { return len(s.pages) }

// Pages returns the set of touched page numbers. Used by the state
// checker to hash dirty memory cheaply.
func (s *Sparse) Pages() []uint32 {
	out := make([]uint32, 0, len(s.pages))
	for n := range s.pages {
		out = append(out, n)
	}
	return out
}

// PageData returns the raw contents of page n, or nil if untouched.
func (s *Sparse) PageData(n uint32) *[PageSize]byte {
	if s.pages == nil {
		return nil
	}
	return s.pages[n]
}

// Host address-space layout of the co-designed processor. The concealed
// memory (everything below GuestWindowBase) holds the TOL binary, its
// data structures and the code cache; the guest's physical memory is
// mapped at a fixed window. TOL works with physical addresses, matching
// the paper's note that the instruction path has no TLB.
const (
	// TOLCodeBase is where the TOL routines live. Each TOL activity is
	// assigned a PC range inside this region by the cost model, so the
	// instruction-cache behaviour of TOL emerges from which routines run.
	TOLCodeBase uint32 = 0x0010_0000
	TOLCodeSize uint32 = 0x0004_0000 // 256 KiB of TOL text

	// DispatchTableBase is the interpreter's opcode dispatch table.
	DispatchTableBase uint32 = 0x0200_0000

	// TransTableBase is the open-addressing hash table mapping guest
	// instruction pointers to code-cache entry points. Code cache
	// lookups probe this region; the paper identifies those probes as
	// a dominant, data-intensive overhead for indirect-branch heavy
	// applications.
	TransTableBase uint32 = 0x0210_0000

	// ProfileTableBase holds per-basic-block execution counters and
	// edge profiles updated by BBM instrumentation code.
	ProfileTableBase uint32 = 0x0228_0000

	// IBTCBase is the Indirect Branch Translation Cache, probed inline
	// by translated code.
	IBTCBase uint32 = 0x0240_0000

	// IRBufBase is the scratch region the optimizer uses for its
	// intermediate representation while forming superblocks.
	IRBufBase uint32 = 0x0250_0000

	// GuestStateBase is the in-memory guest architectural state block
	// (8 GPRs, EFLAGS, EIP, 8 FP registers) read/written by the
	// interpreter and by translation entry/exit glue.
	GuestStateBase uint32 = 0x0300_0000

	// CodeCacheBase is where translated host code is placed. Host PCs
	// of translated basic blocks and superblocks fall in this region.
	CodeCacheBase uint32 = 0x0400_0000
	CodeCacheSize uint32 = 0x0080_0000 // 8 MiB

	// TOLStackBase is the top of the small stack TOL routines use.
	TOLStackBase uint32 = 0x0510_0000

	// GuestWindowBase maps guest physical address g at host address
	// GuestWindowBase+g, so translated memory operations address guest
	// data directly.
	GuestWindowBase uint32 = 0x4000_0000
)

// GuestToHost translates a guest physical address to its host window address.
func GuestToHost(g uint32) uint32 { return GuestWindowBase + g }

// GuestView presents the guest portion of a host address space as a
// guest-addressed Memory: the co-design component's view of the
// emulated application's memory.
type GuestView struct {
	Host Memory
}

// Read8 implements Memory.
func (v GuestView) Read8(a uint32) uint8 { return v.Host.Read8(GuestToHost(a)) }

// Read32 implements Memory.
func (v GuestView) Read32(a uint32) uint32 { return v.Host.Read32(GuestToHost(a)) }

// Read64 implements Memory.
func (v GuestView) Read64(a uint32) uint64 { return v.Host.Read64(GuestToHost(a)) }

// Write8 implements Memory.
func (v GuestView) Write8(a uint32, x uint8) { v.Host.Write8(GuestToHost(a), x) }

// Write32 implements Memory.
func (v GuestView) Write32(a uint32, x uint32) { v.Host.Write32(GuestToHost(a), x) }

// Write64 implements Memory.
func (v GuestView) Write64(a uint32, x uint64) { v.Host.Write64(GuestToHost(a), x) }

// HostToGuest translates a host window address back to the guest address.
// It panics if the address is outside the guest window, which would
// indicate a translator bug.
func HostToGuest(h uint32) uint32 {
	if h < GuestWindowBase {
		panic(fmt.Sprintf("mem: host address %#x below guest window", h))
	}
	return h - GuestWindowBase
}

// InGuestWindow reports whether a host address falls inside the guest
// memory window.
func InGuestWindow(h uint32) bool { return h >= GuestWindowBase }

// Guest address-space layout used by the workload generator. These are
// guest physical addresses (the reproduction models user-level code
// only, so virtual = physical on the guest side).
const (
	GuestCodeBase  uint32 = 0x0804_8000
	GuestDataBase  uint32 = 0x0900_0000
	GuestStackTop  uint32 = 0x0BFF_F000
	GuestTableBase uint32 = 0x0A00_0000 // jump tables for indirect branches
)
