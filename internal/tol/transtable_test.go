package tol

import (
	"math/rand"
	"slices"
	"testing"
)

// denseTT is the translation table over two dense arrays — the
// reference the lazily backed TransTable must be indistinguishable
// from: same results, same probe sequences, same slot contents.
type denseTT struct {
	keys, vals [transTableEntries]uint32
	live, occ  int
}

func (t *denseTT) lookup(g uint32) (uint32, bool, []uint32) {
	var probes []uint32
	for idx := hashGuest(g) & transTableMask; ; idx = (idx + 1) & transTableMask {
		probes = append(probes, idx)
		switch t.keys[idx] {
		case 0:
			return 0, false, probes
		case g + 1:
			return t.vals[idx], true, probes
		}
	}
}

func (t *denseTT) insert(g, hostEntry uint32) []uint32 {
	var probes []uint32
	reuse := -1
	for idx := hashGuest(g) & transTableMask; ; idx = (idx + 1) & transTableMask {
		probes = append(probes, idx)
		switch k := t.keys[idx]; {
		case k == g+1:
			t.vals[idx] = hostEntry
			return probes
		case k == ttTombstone && reuse < 0:
			reuse = int(idx)
		case k == 0:
			if reuse >= 0 {
				idx = uint32(reuse)
			} else {
				t.occ++
			}
			t.live++
			t.keys[idx], t.vals[idx] = g+1, hostEntry
			return probes
		}
	}
}

func (t *denseTT) delete(g, hostEntry uint32) bool {
	for idx := hashGuest(g) & transTableMask; ; idx = (idx + 1) & transTableMask {
		switch t.keys[idx] {
		case 0:
			return false
		case g + 1:
			if t.vals[idx] != hostEntry {
				return false
			}
			t.keys[idx], t.vals[idx] = ttTombstone, 0
			t.live--
			return true
		}
	}
}

func (t *denseTT) slots() []TTSlotSnap {
	var out []TTSlotSnap
	for i, k := range t.keys {
		if k != 0 {
			out = append(out, TTSlotSnap{Idx: uint32(i), Key: k, Val: t.vals[i]})
		}
	}
	return out
}

// guestHashingTo returns the n-th guest address whose home slot is
// slot: hashGuest is multiplication by an odd constant, so the low 16
// bits of the address alone decide the slot and can be solved for.
func guestHashingTo(slot uint32, n int) uint32 {
	inv := uint32(1) // inverse of the hash multiplier mod 2^16, by Newton iteration
	for i := 0; i < 4; i++ {
		inv *= 2 - 2654435761*inv
	}
	return 0x0800_0000 + uint32(n)<<16 | (slot*inv)&0xffff
}

// TestTransTableMatchesDenseOracle drives the lazily backed table and
// the dense oracle with the same randomised Insert/Delete/Lookup mix
// over key pools built to collide — clusters at the page seams of the
// backing store and around the wrap from slot 65535 to 0 — plus
// scattered keys, and requires identical results, probe slices, Len
// and final slot contents (tombstones included, which is also what a
// snapshot serializes).
func TestTransTableMatchesDenseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var pool []uint32
	for _, home := range []uint32{
		transTableMask - 2, transTableMask, 0, // wrap-around cluster
		ttPageSlots - 1, ttPageSlots, // seam between backing pages 0 and 1
		7*ttPageSlots - 1, 40000,
	} {
		for n := 0; n < 12; n++ {
			g := guestHashingTo(home, n)
			if got := hashGuest(g) & transTableMask; got != home {
				t.Fatalf("guestHashingTo(%d, %d) = %#x hashes to %d", home, n, g, got)
			}
			pool = append(pool, g)
		}
	}
	for n := 0; n < 400; n++ {
		pool = append(pool, 0x0804_8000+r.Uint32()%0x40000)
	}

	tt, oracle := NewTransTable(), new(denseTT)
	current := map[uint32]uint32{} // last value inserted per key, for matching deletes
	for op := 0; op < 60_000; op++ {
		g := pool[r.Intn(len(pool))]
		switch r.Intn(10) {
		case 0, 1, 2, 3: // insert or replace
			v := 0x0400_0000 + uint32(op)*4
			got, want := tt.Insert(g, v), oracle.insert(g, v)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d Insert(%#x): probes %v, oracle %v", op, g, got, want)
			}
			current[g] = v
		case 4, 5, 6: // delete: matching value, or a stale one that must not match
			v := current[g]
			if r.Intn(4) == 0 {
				v++
			}
			if got, want := tt.Delete(g, v), oracle.delete(g, v); got != want {
				t.Fatalf("op %d Delete(%#x, %#x) = %v, oracle %v", op, g, v, got, want)
			}
		default:
			gv, gok, gp := tt.Lookup(g)
			wv, wok, wp := oracle.lookup(g)
			if gv != wv || gok != wok || !slices.Equal(gp, wp) {
				t.Fatalf("op %d Lookup(%#x) = %#x %v %v, oracle %#x %v %v", op, g, gv, gok, gp, wv, wok, wp)
			}
		}
		if tt.Len() != oracle.live || tt.occ != oracle.occ {
			t.Fatalf("op %d: live/occ %d/%d, oracle %d/%d", op, tt.Len(), tt.occ, oracle.live, oracle.occ)
		}
	}
	sn := tt.snapshot()
	if !slices.Equal(sn.Slots, oracle.slots()) {
		t.Fatal("final slot contents differ from the dense oracle")
	}
	tombstones := 0
	for _, s := range sn.Slots {
		if s.Key == ttTombstone {
			tombstones++
		}
	}
	if tombstones == 0 || oracle.keys[0] == 0 || oracle.keys[transTableMask] == 0 {
		t.Fatalf("test did not exercise tombstones (%d) and the wrap-around slots", tombstones)
	}

	// A restored table is the same table.
	restored := NewTransTable()
	if err := restored.restore(&sn); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(restored.snapshot().Slots, sn.Slots) || restored.Len() != tt.Len() {
		t.Fatal("snapshot/restore round trip changed the table")
	}
	for _, g := range pool {
		gv, gok, gp := restored.Lookup(g)
		wv, wok, wp := oracle.lookup(g)
		if gv != wv || gok != wok || !slices.Equal(gp, wp) {
			t.Fatalf("restored Lookup(%#x) = %#x %v %v, oracle %#x %v %v", g, gv, gok, gp, wv, wok, wp)
		}
	}
}

// TestTransTableAllocatesWhatItTouches pins the point of the lazy
// backing: an empty table answers lookups without allocating a page,
// and a few hundred scattered translations allocate a small fraction
// of the slot space.
func TestTransTableAllocatesWhatItTouches(t *testing.T) {
	pages := func(tt *TransTable) (n int) {
		for _, p := range tt.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	tt := NewTransTable()
	for g := uint32(0x0804_8000); g < 0x0804_9000; g += 5 {
		if _, ok, _ := tt.Lookup(g); ok {
			t.Fatalf("hit on %#x in an empty table", g)
		}
	}
	if n := pages(tt); n != 0 {
		t.Fatalf("lookups in an empty table allocated %d pages", n)
	}
	for i := uint32(0); i < 200; i++ {
		tt.Insert(0x0804_8000+i*23, 0x0400_0000+i*64)
	}
	if n := pages(tt); n > 200 || n*ttPageSlots > transTableEntries/8 {
		t.Fatalf("200 translations occupy %d pages (%d of %d slots)", n, n*ttPageSlots, transTableEntries)
	}
}
