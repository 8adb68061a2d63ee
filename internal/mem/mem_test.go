package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip8(t *testing.T) {
	s := NewSparse()
	s.Write8(0x1234, 0xab)
	if got := s.Read8(0x1234); got != 0xab {
		t.Fatalf("Read8 = %#x, want 0xab", got)
	}
	if got := s.Read8(0x1235); got != 0 {
		t.Fatalf("untouched byte = %#x, want 0", got)
	}
}

func TestReadWriteRoundTrip32(t *testing.T) {
	s := NewSparse()
	s.Write32(0x8000, 0xdeadbeef)
	if got := s.Read32(0x8000); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
	// Little-endian byte order.
	if got := s.Read8(0x8000); got != 0xef {
		t.Fatalf("low byte = %#x, want 0xef", got)
	}
	if got := s.Read8(0x8003); got != 0xde {
		t.Fatalf("high byte = %#x, want 0xde", got)
	}
}

func TestRead32StraddlesPages(t *testing.T) {
	s := NewSparse()
	addr := uint32(PageSize - 2)
	s.Write32(addr, 0x11223344)
	if got := s.Read32(addr); got != 0x11223344 {
		t.Fatalf("straddling Read32 = %#x, want 0x11223344", got)
	}
	if s.PageCount() != 2 {
		t.Fatalf("PageCount = %d, want 2", s.PageCount())
	}
}

func TestRead64RoundTrip(t *testing.T) {
	s := NewSparse()
	s.Write64(0x100, 0x0102030405060708)
	if got := s.Read64(0x100); got != 0x0102030405060708 {
		t.Fatalf("Read64 = %#x", got)
	}
}

func TestQuickRoundTrip32(t *testing.T) {
	s := NewSparse()
	f := func(addr uint32, v uint32) bool {
		s.Write32(addr, v)
		return s.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip64(t *testing.T) {
	s := NewSparse()
	f := func(addr uint32, v uint64) bool {
		// Avoid wrapping past the top of the address space.
		if addr > 0xffff_fff0 {
			addr = 0xffff_fff0
		}
		s.Write64(addr, v)
		return s.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	s := NewSparse()
	in := []byte{1, 2, 3, 4, 5, 250, 251, 252}
	s.WriteBytes(PageSize-4, in) // straddle a page boundary
	out := s.ReadBytes(PageSize-4, len(in))
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("byte %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Sparse
	s.Write32(0, 42)
	if got := s.Read32(0); got != 42 {
		t.Fatalf("zero-value Sparse Read32 = %d, want 42", got)
	}
}

func TestGuestHostWindow(t *testing.T) {
	g := uint32(0x0804_8000)
	h := GuestToHost(g)
	if h != GuestWindowBase+g {
		t.Fatalf("GuestToHost = %#x", h)
	}
	if back := HostToGuest(h); back != g {
		t.Fatalf("HostToGuest = %#x, want %#x", back, g)
	}
	if !InGuestWindow(h) {
		t.Fatal("InGuestWindow(h) = false")
	}
	if InGuestWindow(TOLCodeBase) {
		t.Fatal("TOL code should not be in guest window")
	}
}

func TestHostToGuestPanicsBelowWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for address below window")
		}
	}()
	HostToGuest(0x1000)
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	type region struct {
		name string
		lo   uint32
		hi   uint32
	}
	regions := []region{
		{"tolcode", TOLCodeBase, TOLCodeBase + TOLCodeSize},
		{"dispatch", DispatchTableBase, DispatchTableBase + 0x1_0000},
		{"transtable", TransTableBase, TransTableBase + 0x10_0000},
		{"profile", ProfileTableBase, ProfileTableBase + 0x10_0000},
		{"ibtc", IBTCBase, IBTCBase + 0x1_0000},
		{"irbuf", IRBufBase, IRBufBase + 0x10_0000},
		{"gueststate", GuestStateBase, GuestStateBase + 0x1000},
		{"codecache", CodeCacheBase, CodeCacheBase + CodeCacheSize},
		{"tolstack", TOLStackBase - 0x1_0000, TOLStackBase},
		{"guestwin", GuestWindowBase, 0xffff_ffff},
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("regions %s and %s overlap", a.name, b.name)
			}
		}
	}
}

func BenchmarkSparseWrite32(b *testing.B) {
	s := NewSparse()
	for i := 0; i < b.N; i++ {
		s.Write32(uint32(i*4)&0xff_ffff, uint32(i))
	}
}

func BenchmarkSparseRead32(b *testing.B) {
	s := NewSparse()
	for i := 0; i < 1<<16; i += 4 {
		s.Write32(uint32(i), uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read32(uint32(i*4) & 0xffff)
	}
}

// TestBytesBulkMatchesBytewise pins the page-wise WriteBytes/ReadBytes
// against bytewise access: same contents over ranges that start and
// end mid-page and span whole pages, and the same touched-page set —
// all-zero data still touches every page it overlaps, which snapshot
// restore relies on to recreate a machine's exact footprint.
func TestBytesBulkMatchesBytewise(t *testing.T) {
	for _, tc := range []struct {
		addr uint32
		n    int
	}{
		{0x1000, 0}, {0x1ffe, 1}, {0x1ffe, 2}, {0x1ffe, 3},
		{0x2000, PageSize}, {0x2345, 3*PageSize + 17}, {0xffff_fff0, 16},
	} {
		data := make([]byte, tc.n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		bulk, bytewise := NewSparse(), NewSparse()
		bulk.WriteBytes(tc.addr, data)
		for i, v := range data {
			bytewise.Write8(tc.addr+uint32(i), v)
		}
		if bulk.PageCount() != bytewise.PageCount() {
			t.Fatalf("WriteBytes(%#x, %d bytes) touched %d pages, bytewise %d", tc.addr, tc.n, bulk.PageCount(), bytewise.PageCount())
		}
		got := bytewise.ReadBytes(tc.addr, tc.n)
		for i := range data {
			if got[i] != data[i] || bulk.Read8(tc.addr+uint32(i)) != data[i] {
				t.Fatalf("range %#x+%d: byte %d differs", tc.addr, tc.n, i)
			}
		}

		zero := NewSparse()
		zero.WriteBytes(tc.addr, make([]byte, tc.n))
		if zero.PageCount() != bytewise.PageCount() {
			t.Fatalf("all-zero WriteBytes(%#x, %d bytes) touched %d pages, want %d", tc.addr, tc.n, zero.PageCount(), bytewise.PageCount())
		}
	}
}
