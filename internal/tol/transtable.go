package tol

import "fmt"

// transTable maps guest instruction pointers to code-cache entry
// points. It is an open-addressing hash table with linear probing whose
// slot addresses are modeled in the host address space: every probe
// performed here is also emitted by the cost model as loads at the
// corresponding simulated addresses, so the table's cache behaviour is
// real. The table mirrors the paper's description of the code cache
// lookup as "a table that maps x86 instruction pointers to the position
// in the code cache where the translation is stored".
//
// Deletion (code-cache eviction) uses tombstones, as linear probing
// requires: a deleted slot keeps its place in probe chains but can be
// reclaimed by a later insert. Tombstones lengthen probe chains until
// reuse — a real cost the lookup stream carries.
//
// Only the Go storage is lazy: slots live in small pages allocated on
// first write, so a fresh table costs its page directory, not the
// 512 KB its slots span. Slot indices, probe sequences, tombstones and
// simulated slot addresses do not depend on which pages exist.
type transTable struct {
	pages [transTableEntries / ttPageSlots]*ttPage
	live  int // live entries
	occ   int // live + tombstones (probe-chain load)

	// probeBuf records the slot indices touched by the last operation,
	// consumed by the cost model.
	probeBuf []uint32
}

// ttPageSlots is the number of consecutive slots one backing page
// holds. hashGuest scatters entries over the whole index space, so a
// page rarely holds more than one or two of a program's translations:
// pages must be small or a 200-translation program allocates most of
// the table anyway.
const (
	ttPageShift = 5
	ttPageSlots = 1 << ttPageShift
)

// ttPage backs ttPageSlots consecutive slots.
type ttPage struct {
	keys [ttPageSlots]uint32 // guest IP + 1 (0 = empty, ^0 = tombstone)
	vals [ttPageSlots]uint32 // host entry PC
}

// ttMaxOcc is Insert's fill bound: at this many occupied slots
// (live + tombstones) the table refuses a new entry.
const ttMaxOcc = transTableEntries * 3 / 4

// ttTombstone marks a deleted slot. It can never collide with a live
// key: keys store the guest IP + 1, and guest code lives far below
// 0xFFFFFFFE.
const ttTombstone = ^uint32(0)

// newTransTable returns an empty translation table.
func newTransTable() *transTable {
	return &transTable{probeBuf: make([]uint32, 0, 16)}
}

// key returns the key word of slot idx (0 on a never-written page).
func (t *transTable) key(idx uint32) uint32 {
	if p := t.pages[idx>>ttPageShift]; p != nil {
		return p.keys[idx&(ttPageSlots-1)]
	}
	return 0
}

// val returns the value word of slot idx, which must be occupied.
func (t *transTable) val(idx uint32) uint32 {
	return t.pages[idx>>ttPageShift].vals[idx&(ttPageSlots-1)]
}

// set writes slot idx, allocating its page on first write.
func (t *transTable) set(idx, key, val uint32) {
	p := t.pages[idx>>ttPageShift]
	if p == nil {
		p = new(ttPage)
		t.pages[idx>>ttPageShift] = p
	}
	p.keys[idx&(ttPageSlots-1)] = key
	p.vals[idx&(ttPageSlots-1)] = val
}

// Lookup finds the translation entry for guest address g. The returned
// probe slice lists the table slots touched (valid until the next
// operation).
func (t *transTable) Lookup(g uint32) (hostEntry uint32, ok bool, probes []uint32) {
	t.probeBuf = t.probeBuf[:0]
	idx := hashGuest(g) & transTableMask
	for {
		t.probeBuf = append(t.probeBuf, idx)
		k := t.key(idx)
		if k == 0 {
			return 0, false, t.probeBuf
		}
		if k == g+1 {
			return t.val(idx), true, t.probeBuf
		}
		// Mismatch or tombstone: keep probing.
		idx = (idx + 1) & transTableMask
		if len(t.probeBuf) > transTableEntries {
			panic("tol: translation table full loop")
		}
	}
}

// Insert adds or replaces the mapping for guest address g, reusing the
// first tombstone on the probe path when the key is new. The probe
// slice lists slots touched.
func (t *transTable) Insert(g, hostEntry uint32) (probes []uint32) {
	t.probeBuf = t.probeBuf[:0]
	if t.occ >= ttMaxOcc {
		panic(fmt.Sprintf("tol: translation table over capacity (%d entries)", t.occ))
	}
	idx := hashGuest(g) & transTableMask
	reuse := int64(-1)
	for {
		t.probeBuf = append(t.probeBuf, idx)
		k := t.key(idx)
		if k == g+1 {
			t.set(idx, k, hostEntry)
			return t.probeBuf
		}
		if k == ttTombstone && reuse < 0 {
			reuse = int64(idx)
		}
		if k == 0 {
			if reuse >= 0 {
				idx = uint32(reuse)
			} else {
				t.occ++
			}
			t.live++
			t.set(idx, g+1, hostEntry)
			return t.probeBuf
		}
		idx = (idx + 1) & transTableMask
	}
}

// Delete removes the mapping for guest address g, but only if it still
// points at hostEntry — a guest address whose basic block was
// superseded (e.g. a superblock replaced the BB entry) keeps its newer
// mapping when the old translation is evicted. Reports whether a
// mapping was removed.
func (t *transTable) Delete(g, hostEntry uint32) bool {
	idx := hashGuest(g) & transTableMask
	for n := 0; n <= transTableEntries; n++ {
		k := t.key(idx)
		if k == 0 {
			return false
		}
		if k == g+1 {
			if t.val(idx) != hostEntry {
				return false
			}
			t.set(idx, ttTombstone, 0)
			t.live--
			return true
		}
		idx = (idx + 1) & transTableMask
	}
	return false
}

// Len returns the number of live entries.
func (t *transTable) Len() int { return t.live }
