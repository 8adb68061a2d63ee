package guest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// decodeCacheX86Program builds a variable-length x86 program with a
// loop body covering several encodings and a data access.
func decodeCacheX86Program(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
	r := rand.New(rand.NewSource(7))
	b.Label("start")
	b.MovRI(EBP, int32(mem.GuestDataBase))
	b.MovRI(ECX, 300)
	b.Label("loop")
	b.AddRI(EAX, int32(r.Intn(1000)))
	b.XorRR(EAX, ECX)
	b.Store(EBP, 16, EAX)
	b.Load(EBX, EBP, 16)
	b.Shl(EBX, 3)
	b.TestRR(EBX, EBX)
	b.Jcc(CondS, "skip")
	b.Inc(ESI)
	b.Label("skip")
	b.Dec(ECX)
	b.CmpRI(ECX, 0)
	b.Jcc(CondG, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// decodeCacheRV32Program builds a fixed-length RV32I program with the
// same shape: an ALU-heavy loop, memory traffic, a conditional skip,
// and a call through jal/jalr.
func decodeCacheRV32Program(t *testing.T) *Program {
	t.Helper()
	b := NewRV32Builder()
	b.Li(8, int32(mem.GuestDataBase))
	b.Li(5, 300)
	b.Label("loop")
	b.Addi(10, 10, 37)
	b.Xor(10, 10, 5)
	b.Sw(10, 8, 16)
	b.Lw(11, 8, 16)
	b.Slli(11, 11, 3)
	b.Bge(11, 0, "skip")
	b.Addi(7, 7, 1)
	b.Label("skip")
	b.Jal(1, "leaf")
	b.Addi(5, 5, -1)
	b.Bne(5, 0, "loop")
	b.Ebreak()
	b.Label("leaf")
	b.Sra(12, 10, 5)
	b.Sltu(13, 12, 10)
	b.Jalr(0, 1, 0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func decodeCachePrograms(t *testing.T) map[string]*Program {
	return map[string]*Program{
		"x86":  decodeCacheX86Program(t),
		"rv32": decodeCacheRV32Program(t),
	}
}

// TestDecodeCacheStepMatchesStep locks the cached interpreter to the
// canonical semantics for every registered frontend: running the same
// program through ISA.Step and through DecodeCache.Step must produce
// identical states and StepResults at every instruction, including
// revisits that hit the cache.
func TestDecodeCacheStepMatchesStep(t *testing.T) {
	for name, p := range decodeCachePrograms(t) {
		t.Run(name, func(t *testing.T) {
			isa, err := ISAOf(p)
			if err != nil {
				t.Fatal(err)
			}
			m1, m2 := mem.NewSparse(), mem.NewSparse()
			s1 := p.LoadInto(m1)
			s2 := p.LoadInto(m2)
			dc := NewDecodeCache(isa)
			for step := 0; ; step++ {
				var r1, r2 StepResult
				err1 := isa.Step(&s1, m1, &r1)
				err2 := dc.Step(&s2, m2, &r2)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("step %d: errors diverge: %v vs %v", step, err1, err2)
				}
				if err1 != nil {
					break
				}
				if r1 != r2 {
					t.Fatalf("step %d: StepResult diverges:\n plain:  %+v\n cached: %+v", step, r1, r2)
				}
				if !s1.Equal(&s2) {
					t.Fatalf("step %d: state diverges: %s", step, s1.Diff(&s2))
				}
				if r1.Halted {
					break
				}
				if step > 1_000_000 {
					t.Fatal("program did not halt")
				}
			}
		})
	}
}

// TestDecodeCacheTagAliasing drives addresses that collide in the
// direct-mapped index and checks the full-EIP tag forces a re-decode
// instead of replaying the wrong instruction. For the fixed-length
// frontend the colliding addresses differ by exactly
// decodeCacheEntries<<InstShift, proving the shifted indexing is what
// makes them collide.
func TestDecodeCacheTagAliasing(t *testing.T) {
	t.Run("x86", func(t *testing.T) {
		m := mem.NewSparse()
		lo := mem.GuestCodeBase
		hi := lo + decodeCacheEntries // same index, different tag
		for _, enc := range []struct {
			addr uint32
			inst Inst
		}{
			{lo, Inst{Op: OpAddRI, R1: EAX, Imm: 5}},
			{hi, Inst{Op: OpSubRI, R1: EAX, Imm: 3}},
		} {
			for i, byt := range Encode(nil, enc.inst) {
				m.Write8(enc.addr+uint32(i), byt)
			}
		}
		dc := NewDecodeCache(X86)
		var s State
		var res StepResult
		for round := 0; round < 3; round++ {
			s = State{EIP: lo}
			if err := dc.Step(&s, m, &res); err != nil {
				t.Fatal(err)
			}
			want := s.Regs[EAX]
			s = State{EIP: hi, Regs: s.Regs}
			if err := dc.Step(&s, m, &res); err != nil {
				t.Fatal(err)
			}
			if got := s.Regs[EAX]; got != want-3 {
				t.Fatalf("round %d: colliding slot replayed stale instruction: eax=%d want %d", round, got, want-3)
			}
		}
	})

	t.Run("rv32", func(t *testing.T) {
		m := mem.NewSparse()
		lo := mem.GuestCodeBase
		hi := lo + decodeCacheEntries<<RV32.InstShift
		if (lo>>RV32.InstShift)&(decodeCacheEntries-1) != (hi>>RV32.InstShift)&(decodeCacheEntries-1) {
			t.Fatal("test bug: addresses do not collide under shifted indexing")
		}
		write := func(addr, word uint32) {
			for i := 0; i < 4; i++ {
				m.Write8(addr+uint32(i), byte(word>>(8*i)))
			}
		}
		write(lo, rv32EncI(5, 0, 0, 10, 0x13))         // addi x10, x0, 5
		write(hi, rv32EncI(-3&0xfff, 10, 0, 10, 0x13)) // addi x10, x10, -3
		dc := NewDecodeCache(RV32)
		var s State
		var res StepResult
		for round := 0; round < 3; round++ {
			s = State{EIP: lo}
			if err := dc.Step(&s, m, &res); err != nil {
				t.Fatal(err)
			}
			s.EIP = hi
			if err := dc.Step(&s, m, &res); err != nil {
				t.Fatal(err)
			}
			if got := s.Regs[10]; got != 2 {
				t.Fatalf("round %d: colliding slot replayed stale instruction: x10=%d want 2", round, got)
			}
		}
	})
}

// TestDecodeCacheFixedLengthIndexSpread checks that consecutive
// fixed-length instructions occupy consecutive cache slots rather than
// aliasing into every fourth one: a straight-line rv32 program longer
// than decodeCacheEntries/4 must still hit the cache on a second pass
// if the shifted indexing works (without the shift, instructions 0 and
// 2048 would collide).
func TestDecodeCacheFixedLengthIndexSpread(t *testing.T) {
	b := NewRV32Builder()
	const n = decodeCacheEntries/4 + 64 // > one quarter of the slots
	for i := 0; i < n; i++ {
		b.Addi(10, 10, 1)
	}
	b.Ebreak()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewSparse()
	s := p.LoadInto(m)
	dc := NewDecodeCache(RV32)
	var res StepResult
	for !res.Halted {
		if err := dc.Step(&s, m, &res); err != nil {
			t.Fatal(err)
		}
	}
	if s.Regs[10] != n {
		t.Fatalf("x10=%d want %d", s.Regs[10], n)
	}
	// Every instruction decoded once; a full second pass must be
	// served entirely from cache. Prove it by poisoning memory: a
	// cache hit never touches the encoding bytes.
	for i := range p.Code {
		m.Write8(mem.GuestCodeBase+uint32(i), 0xff)
	}
	s = State{EIP: p.Entry}
	res = StepResult{}
	for !res.Halted {
		if err := dc.Step(&s, m, &res); err != nil {
			t.Fatalf("second pass missed the cache (re-decoded poisoned bytes): %v", err)
		}
	}
	if s.Regs[10] != n {
		t.Fatalf("second pass: x10=%d want %d", s.Regs[10], n)
	}
}

// TestDecodeCachePageBoundaries exercises the lazily allocated backing
// pages at their seams. A straight-line variable-length x86 program
// long enough to span several backing pages puts instructions in the
// last slot of one page and the first of the next, and encodings that
// straddle the byte range of two pages; it must execute identically to
// the uncached path, and a second pass must be served from the cache
// alone (memory is poisoned in between).
func TestDecodeCachePageBoundaries(t *testing.T) {
	b := NewBuilder()
	// Encodings of 6, 1 and 2 bytes: a 9-byte period, coprime with the
	// page size, so instruction starts visit every slot of a page.
	const n = 6 * decodePageSlots
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			b.AddRI(EAX, int32(i))
		case 1:
			b.Nop()
		default:
			b.XorRR(EDX, EAX)
		}
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := mem.NewSparse(), mem.NewSparse()
	s1, s2 := p.LoadInto(m1), p.LoadInto(m2)
	dc := NewDecodeCache(X86)
	lastSlot, firstSlot := false, false
	for {
		slot := s2.EIP & (decodePageSlots - 1)
		lastSlot = lastSlot || slot == decodePageSlots-1
		firstSlot = firstSlot || slot == 0
		var r1, r2 StepResult
		if err := X86.Step(&s1, m1, &r1); err != nil {
			t.Fatal(err)
		}
		if err := dc.Step(&s2, m2, &r2); err != nil {
			t.Fatal(err)
		}
		if r1 != r2 || !s1.Equal(&s2) {
			t.Fatalf("eip %#x: cached step diverges: %+v vs %+v (%s)", s1.EIP, r1, r2, s1.Diff(&s2))
		}
		if r1.Halted {
			break
		}
	}
	if !lastSlot || !firstSlot {
		t.Fatal("test bug: no instruction landed on a page-boundary slot")
	}
	pages := 0
	for _, pg := range dc.pages {
		if pg != nil {
			pages++
		}
	}
	if want := len(p.Code)/decodePageSlots + 1; pages < want-1 || pages > want+1 {
		t.Fatalf("%d code bytes backed by %d pages, want about %d", len(p.Code), pages, want)
	}

	for i := range p.Code {
		m2.Write8(mem.GuestCodeBase+uint32(i), 0xff)
	}
	want := s2
	s2 = State{EIP: p.Entry}
	s2.Regs[ESP] = mem.GuestStackTop
	var res StepResult
	for !res.Halted {
		if err := dc.Step(&s2, m2, &res); err != nil {
			t.Fatalf("second pass missed the cache at %#x: %v", s2.EIP, err)
		}
	}
	if !s2.Equal(&want) {
		t.Fatalf("second pass: %s", s2.Diff(&want))
	}
}

// TestDecodeCacheAliasingAcrossPages drives the aliasing check at a
// page seam: two neighbouring instructions in the last and first slots
// of adjacent backing pages, and their aliases one table size away.
// Evicting one alias must not disturb the neighbour in the other page,
// and a page first touched by an alias must behave like any other.
func TestDecodeCacheAliasingAcrossPages(t *testing.T) {
	m := mem.NewSparse()
	const table = decodeCacheEntries
	last := mem.GuestCodeBase + decodePageSlots - 1 // last slot of a backing page
	first := last + 1 + 2*table                     // first slot of the next page (two table sizes up: the encodings must not overlap)
	slotOf := func(eip uint32) uint32 { return eip & (table - 1) }
	if slotOf(last)&(decodePageSlots-1) != decodePageSlots-1 || slotOf(first) != slotOf(last)+1 {
		t.Fatal("test bug: addresses are not on the two sides of a page seam")
	}
	put := func(addr uint32, in Inst) {
		for i, byt := range Encode(nil, in) {
			m.Write8(addr+uint32(i), byt)
		}
	}
	put(last, Inst{Op: OpIncR, R1: EAX})
	put(last+table, Inst{Op: OpDecR, R1: EAX})
	put(first, Inst{Op: OpIncR, R1: ECX})
	put(first+table, Inst{Op: OpDecR, R1: ECX})

	dc := NewDecodeCache(X86)
	var s State
	var res StepResult
	step := func(eip uint32) {
		t.Helper()
		s.EIP = eip
		if err := dc.Step(&s, m, &res); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 3; round++ {
		step(last + table) // alias first: it is what allocates the page
		step(last)
		step(last)
		step(first)
		step(first + table)
		step(first)
		if got, want := s.Regs[EAX], uint32(round); got != want {
			t.Fatalf("round %d: eax=%d want %d (last-slot aliases confused)", round, got, want)
		}
		if got, want := s.Regs[ECX], uint32(round); got != want {
			t.Fatalf("round %d: ecx=%d want %d (first-slot aliases confused)", round, got, want)
		}
	}
}

// TestDecodeCacheDecodeSharesSlotsWithStep pins Decode, the
// translators' entry point: it returns what the frontend decoder
// returns, reports a decode failure as the decoder's own error, and
// fills the same slots Step reads — after Decode, Step never touches
// the encoding bytes.
func TestDecodeCacheDecodeSharesSlotsWithStep(t *testing.T) {
	for name, p := range decodeCachePrograms(t) {
		t.Run(name, func(t *testing.T) {
			isa, err := ISAOf(p)
			if err != nil {
				t.Fatal(err)
			}
			m := mem.NewSparse()
			s := p.LoadInto(m)
			dc := NewDecodeCache(isa)
			for eip := p.Entry; eip < mem.GuestCodeBase+uint32(len(p.Code)); {
				got, err := dc.Decode(eip, m)
				if err != nil {
					t.Fatalf("Decode(%#x): %v", eip, err)
				}
				buf := make([]byte, isa.MaxInstSize)
				for i := range buf {
					buf[i] = m.Read8(eip + uint32(i))
				}
				want, err := isa.DecodeAt(buf, eip)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Decode(%#x) = %+v, DecodeAt %+v", eip, got, want)
				}
				eip += uint32(got.Size)
			}
			for i := range p.Code {
				m.Write8(mem.GuestCodeBase+uint32(i), 0xff)
			}
			var res StepResult
			for steps := 0; !res.Halted; steps++ {
				if err := dc.Step(&s, m, &res); err != nil {
					t.Fatalf("Step after Decode re-read poisoned bytes at %#x: %v", s.EIP, err)
				}
				if steps > 1_000_000 {
					t.Fatal("program did not halt")
				}
			}

			// Poisoned bytes beyond the program: the decoder's error comes
			// back bare from Decode and with the address from Step.
			bad := mem.GuestCodeBase + uint32(len(p.Code)) + 64
			for i := uint32(0); i < 8; i++ {
				m.Write8(bad+i, 0xff)
			}
			_, derr := dc.Decode(bad, m)
			if derr == nil {
				t.Skip("frontend decodes an all-ones encoding")
			}
			s.EIP = bad
			serr := dc.Step(&s, m, &res)
			if serr == nil || !errors.Is(serr, derr) && serr.Error() != fmt.Sprintf("at eip=%#x: %v", bad, derr) {
				t.Fatalf("Step error %v does not wrap Decode error %v with the address", serr, derr)
			}
		})
	}
}

// TestDecodeCachesConcurrent steps one shared program through a
// private cache per goroutine. Caches share only the immutable
// frontend description, so under -race this is the tripwire for any
// lazily shared backing state.
func TestDecodeCachesConcurrent(t *testing.T) {
	p := decodeCacheX86Program(t)
	run := func() (State, error) {
		m := mem.NewSparse()
		s := p.LoadInto(m)
		dc := NewDecodeCache(X86)
		var res StepResult
		for !res.Halted {
			if err := dc.Step(&s, m, &res); err != nil {
				return s, err
			}
		}
		return s, nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			got, err := run()
			if err == nil && !got.Equal(&want) {
				err = fmt.Errorf("final state differs: %s", got.Diff(&want))
			}
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
