package tol

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/timing"
)

// pressureProgram builds a guest program whose translated footprint
// exceeds a small bounded code cache: `loops` distinct hot inner loops
// (each its own basic block and, once promoted, superblock), each
// calling a shared subroutine (so returns exercise the IBTC), all
// repeated `outer` times so evicted code is re-entered and must
// retranslate.
func pressureProgram(loops, iters, outer int32) *guest.Program {
	b := guest.NewBuilder()
	b.MovRI(guest.ESI, outer)
	b.MovRI(guest.EDI, 0) // checksum
	b.Label("outer")
	for k := int32(0); k < loops; k++ {
		lbl := fmt.Sprintf("loop%d", k)
		b.MovRI(guest.ECX, iters)
		b.MovRI(guest.EAX, k+1)
		b.Label(lbl)
		b.AddRI(guest.EAX, 3)
		b.XorRI(guest.EAX, int32(0x55+k))
		b.Shl(guest.EAX, 1)
		b.AddRR(guest.EDI, guest.EAX)
		b.Call("sub")
		b.Dec(guest.ECX)
		b.Jcc(guest.CondNE, lbl)
	}
	b.Dec(guest.ESI)
	b.Jcc(guest.CondNE, "outer")
	b.Halt()
	b.Label("sub")
	b.AddRI(guest.EDI, 7)
	b.Ret()
	return b.MustBuild()
}

// verifyNoDangling walks every structure that can reference the code
// cache and asserts nothing points into freed space:
//   - every direct jump in surviving translations targets TOL or a
//     live translation,
//   - every translation-table entry maps to a live entry point,
//   - every IBTC line caches a live entry point, and the Go-side mirror
//     the unlink scans agrees with simulated memory,
//   - every remembered promotion maps to a live superblock.
func verifyNoDangling(t *testing.T, e *Engine) {
	t.Helper()
	cc := e.CC
	for _, tr := range cc.Translations() {
		for pc := tr.HostEntry; pc < tr.HostEnd; pc += host.InstBytes {
			in := cc.InstAt(pc)
			if in == nil {
				t.Fatalf("translation %#x: no instruction at %#x", tr.HostEntry, pc)
			}
			if in.Op != host.Jal {
				continue
			}
			target := pc + host.InstBytes + uint32(in.Imm)
			if target == tolEntry {
				continue
			}
			if !cc.Contains(target) {
				t.Fatalf("translation %#x: jal at %#x leaves the cache for %#x", tr.HostEntry, pc, target)
			}
			if cc.EntryAt(target) == nil {
				t.Fatalf("translation %#x: dangling chain at %#x -> %#x", tr.HostEntry, pc, target)
			}
		}
	}
	for _, slot := range e.tt.snapshot().Slots {
		k, entry := slot.Key, slot.Val
		if k == ttTombstone {
			continue
		}
		tr := cc.EntryAt(entry)
		if tr == nil {
			t.Fatalf("translation table: guest %#x -> dead entry %#x", k-1, entry)
		}
		if tr.GuestEntry != k-1 {
			t.Fatalf("translation table: guest %#x mapped to translation of %#x", k-1, tr.GuestEntry)
		}
	}
	for i := uint32(0); i < ibtcEntries; i++ {
		addr := ibtcSlotAddr(i)
		entry := e.hostMem.Read32(addr + 4)
		if e.ib.entry[i] != entry {
			t.Fatalf("IBTC slot %d: mirror holds %#x, simulated memory %#x", i, e.ib.entry[i], entry)
		}
		if entry == 0 {
			continue
		}
		if cc.EntryAt(entry) == nil {
			t.Fatalf("IBTC slot %d: dangling host entry %#x", i, entry)
		}
	}
	for seed, sb := range e.promoted {
		if cc.EntryAt(sb.HostEntry) != sb {
			t.Fatalf("promoted map: seed %#x -> dead superblock %#x", seed, sb.HostEntry)
		}
	}
}

// TestEvictionCorrectUnderPressure runs a program whose footprint
// overflows a tiny bounded cache under every registered policy, with
// continuous co-simulation — any dangling chain, stale IBTC line or
// wrong retranslation diverges from the authoritative emulator — and
// then structurally verifies the unlink completeness.
func TestEvictionCorrectUnderPressure(t *testing.T) {
	prog := pressureProgram(14, 40, 3)
	for _, policy := range RegisteredEvictionPolicies() {
		t.Run(policy, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SBThreshold = 30 // promote quickly so superblocks churn too
			cfg.Cache = CacheConfig{CapacityInsts: 640, Policy: policy}
			eng, _ := runBoth(t, prog, cfg)
			if eng.Stats.Evictions == 0 {
				t.Fatal("expected evictions under a 640-inst cache")
			}
			if eng.Stats.Retranslations == 0 {
				t.Fatal("expected retranslations after eviction")
			}
			if got := eng.Stats.CacheOccupancyPeak; got == 0 || got > 640 {
				t.Fatalf("occupancy peak %d out of range (0, 640]", got)
			}
			if policy == "flush-all" && eng.Stats.FlushCount == 0 {
				t.Fatal("flush-all evicted without counting a flush")
			}
			if eng.CC.UsedInsts() > 640 {
				t.Fatalf("occupancy %d exceeds capacity", eng.CC.UsedInsts())
			}
			verifyNoDangling(t, eng)
		})
	}
}

// TestBoundedNeverEvictingIsStreamIdentical checks the acceptance
// criterion that bounding the cache is behaviour-preserving when no
// eviction fires: a bound far above the program's footprint must
// produce the exact same dynamic instruction stream as the unbounded
// cache.
func TestBoundedNeverEvictingIsStreamIdentical(t *testing.T) {
	prog := pressureProgram(6, 40, 2)
	collect := func(cfg Config) []timing.DynInst {
		eng := NewEngine(cfg, prog)
		var out []timing.DynInst
		var d timing.DynInst
		for eng.Next(&d) {
			out = append(out, d)
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cfg := DefaultConfig()
	cfg.SBThreshold = 30
	unbounded := collect(cfg)
	cfg.Cache = CacheConfig{CapacityInsts: 1 << 20, Policy: "lru-translation"}
	bounded := collect(cfg)
	if len(unbounded) != len(bounded) {
		t.Fatalf("stream lengths differ: unbounded %d, bounded %d", len(unbounded), len(bounded))
	}
	for i := range unbounded {
		if unbounded[i] != bounded[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, unbounded[i], bounded[i])
		}
	}
}

// TestOversizedTranslationStaysInterpreted: a basic block whose
// translation exceeds the whole bounded cache must not kill the run —
// the block stays interpreted (with profile back-off) and everything
// else still translates.
func TestOversizedTranslationStaysInterpreted(t *testing.T) {
	b := guest.NewBuilder()
	b.MovRI(guest.ESI, 0x9000) // scratch arena base
	b.MovRI(guest.EDX, 0)      // index
	b.MovRI(guest.ECX, 40)
	b.Label("loop")
	// One huge straight-line block: 90 indexed stores+loads expand to
	// several hundred host instructions — more than the whole cache.
	for i := int32(0); i < 45; i++ {
		b.StoreIdx(guest.ESI, guest.EDX, 4, i*4, guest.ECX)
		b.LoadIdx(guest.EAX, guest.ESI, guest.EDX, 4, i*4)
	}
	b.Dec(guest.ECX)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cache = CacheConfig{CapacityInsts: MinCacheCapacityInsts, Policy: "flush-all"}
	eng, _ := runBoth(t, prog, cfg)
	if eng.Stats.DynIM < 1000 {
		t.Fatalf("oversized block should stay interpreted, DynIM = %d", eng.Stats.DynIM)
	}
	for _, tr := range eng.CC.Translations() {
		if tr.HostEnd-tr.HostEntry > MinCacheCapacityInsts*host.InstBytes {
			t.Fatalf("oversized translation was placed: %d insts", (tr.HostEnd-tr.HostEntry)/host.InstBytes)
		}
	}
}

// TestOversizedSuperblockKeepsBBM: when the formed superblock trace
// exceeds the whole bounded cache, promotion is abandoned gracefully —
// the run continues in BBM (counter reset, no run error).
func TestOversizedSuperblockKeepsBBM(t *testing.T) {
	b := guest.NewBuilder()
	b.MovRI(guest.ESI, 0x9000)
	b.MovRI(guest.EDX, 0)
	b.MovRI(guest.ECX, 80)
	b.Label("loop")
	// Six mid-size blocks connected by direct jumps: each basic block
	// fits the cache, but the superblock trace that follows the jumps
	// does not.
	for blk := 0; blk < 6; blk++ {
		for i := int32(0); i < 12; i++ {
			b.StoreIdx(guest.ESI, guest.EDX, 4, int32(blk)*64+i*4, guest.ECX)
		}
		b.Jmp(fmt.Sprintf("blk%d", blk))
		b.Label(fmt.Sprintf("blk%d", blk))
	}
	b.Dec(guest.ECX)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	cfg.Cache = CacheConfig{CapacityInsts: MinCacheCapacityInsts, Policy: "lru-translation"}
	eng, _ := runBoth(t, prog, cfg)
	if eng.Stats.SBCreated != 0 {
		t.Fatalf("oversized superblock was created (%d)", eng.Stats.SBCreated)
	}
	if eng.Stats.DynBBM == 0 {
		t.Fatal("expected execution to continue in BBM after abandoned promotion")
	}
}

// place puts n nop instructions into the cache as a fake translation.
func place(t *testing.T, cc *CodeCache, guestEntry uint32, n int) *Translation {
	t.Helper()
	tr := &Translation{TransDesc: TransDesc{Kind: KindBB, GuestEntry: guestEntry, GuestLen: n}}
	code := make([]host.Inst, n)
	base, err := cc.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	cc.PlaceAt(base, tr, code, 0, n, nil)
	return tr
}

func newBounded(t *testing.T, capacity int, policy string) *CodeCache {
	t.Helper()
	cfg := CacheConfig{CapacityInsts: capacity, Policy: policy}
	p, err := cfg.NewEvictionPolicy()
	if err != nil {
		t.Fatal(err)
	}
	return newBoundedCodeCache(cfg, p)
}

func TestFlushAllResetsCache(t *testing.T) {
	cc := newBounded(t, 256, "flush-all")
	var flushes int
	cc.OnEvict = func(ev EvictEvent) {
		if !ev.Flush {
			t.Error("flush-all eviction must report Flush")
		}
		flushes++
	}
	for i := 0; i < 3; i++ {
		place(t, cc, 0x8000_0000+uint32(i)*64, 80)
	}
	// 240/256 used; the next 80 do not fit -> full flush.
	tr := place(t, cc, 0x8000_1000, 80)
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1", flushes)
	}
	if got := len(cc.Translations()); got != 1 {
		t.Fatalf("translations after flush = %d, want 1", got)
	}
	if tr.HostEntry != cc.PCOf(0) {
		t.Fatalf("post-flush placement at %#x, want cache base", tr.HostEntry)
	}
	if cc.UsedInsts() != 80 || cc.OccupancyPeak() != 240 {
		t.Fatalf("used %d peak %d, want 80/240", cc.UsedInsts(), cc.OccupancyPeak())
	}
}

func TestLRUEvictsLeastRecentlyTouched(t *testing.T) {
	cc := newBounded(t, 256, "lru-translation")
	a := place(t, cc, 0x8000_0000, 100)
	bTr := place(t, cc, 0x8000_0100, 100)
	cc.Touch(a) // a is now more recent than b
	var victims []*Translation
	cc.OnEvict = func(ev EvictEvent) { victims = append(victims, ev.Victims...) }
	c := place(t, cc, 0x8000_0200, 100) // forces eviction of b
	if len(victims) != 1 || victims[0] != bTr {
		t.Fatalf("victims = %v, want exactly the untouched translation", victims)
	}
	if cc.EntryAt(a.HostEntry) != a || cc.EntryAt(c.HostEntry) != c {
		t.Fatal("survivors lost")
	}
	// The freed hole (b's slots) must be reused first-fit.
	if c.HostEntry != bTr.HostEntry {
		t.Fatalf("new placement at %#x, want reuse of freed %#x", c.HostEntry, bTr.HostEntry)
	}
}

func TestFifoRegionReclaimsInAddressRotation(t *testing.T) {
	cc := newBounded(t, 400, "fifo-region") // regions of 100 slots
	var trs []*Translation
	for i := 0; i < 4; i++ {
		trs = append(trs, place(t, cc, 0x8000_0000+uint32(i)*0x100, 100))
	}
	var batches [][]*Translation
	cc.OnEvict = func(ev EvictEvent) { batches = append(batches, ev.Victims) }
	place(t, cc, 0x8000_1000, 100) // overflow: region 0 reclaimed first
	if len(batches) != 1 {
		t.Fatalf("batches = %d, want 1", len(batches))
	}
	if len(batches[0]) != 1 || batches[0][0] != trs[0] {
		t.Fatalf("first reclaimed batch = %v, want the region-0 translation", batches[0])
	}
	place(t, cc, 0x8000_2000, 100) // next overflow: region 1
	if len(batches) != 2 || batches[1][0] != trs[1] {
		t.Fatalf("second batch should reclaim region 1, got %v", batches)
	}
}

func TestEvictRestoresChainPatches(t *testing.T) {
	cc := newBounded(t, 512, "lru-translation")
	cc.link(newTransTable(), nil)
	src := place(t, cc, 0x8000_0000, 100)
	dst := place(t, cc, 0x8000_0100, 100)
	// Register an exit on src and chain it to dst.
	exitPC := src.HostEntry + 50*host.InstBytes
	info := &ExitInfo{Reason: ExitTaken, GuestTarget: dst.GuestEntry}
	src.Exits = map[uint32]*ExitInfo{exitPC: info}
	orig := *cc.InstAt(exitPC)
	if err := cc.Patch(exitPC, dst.HostEntry); err != nil {
		t.Fatal(err)
	}
	info.Chained = true
	if cc.InstAt(exitPC).Op != host.Jal {
		t.Fatal("patch did not install a jal")
	}
	if n := cc.Evict([]*Translation{dst}); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if got := *cc.InstAt(exitPC); got != orig {
		t.Fatalf("chain patch not restored: %+v, want %+v", got, orig)
	}
	if info.Chained {
		t.Fatal("exit still marked chained after unlink")
	}
	// src itself must survive untouched.
	if cc.EntryAt(src.HostEntry) != src {
		t.Fatal("source translation evicted")
	}
}

func TestPatchUnplacedTyped(t *testing.T) {
	cc := newCodeCache()
	tr := place(t, cc, 0x8000_0000, 8)
	// Inside the cache region but never placed: typed error.
	err := cc.Patch(tr.HostEnd+64, tr.HostEntry)
	if !errors.Is(err, errUnplacedPatch) {
		t.Fatalf("err = %v, want errUnplacedPatch", err)
	}
	// Outside the region entirely.
	if err := cc.Patch(0x1000, tr.HostEntry); !errors.Is(err, errUnplacedPatch) {
		t.Fatalf("err = %v, want errUnplacedPatch", err)
	}
	// Freed slots are unplaced again.
	pc := tr.HostEntry
	if n := cc.Evict([]*Translation{tr}); n != 1 {
		t.Fatal("evict failed")
	}
	if err := cc.Patch(pc, pc); !errors.Is(err, errUnplacedPatch) {
		t.Fatalf("patch into freed slot: err = %v, want errUnplacedPatch", err)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cc   CacheConfig
		ok   bool
	}{
		{"unbounded", CacheConfig{}, true},
		{"bounded-default-policy", CacheConfig{CapacityInsts: 4096}, true},
		{"bounded-named", CacheConfig{CapacityInsts: 4096, Policy: "fifo-region"}, true},
		{"negative", CacheConfig{CapacityInsts: -1}, false},
		{"too-small", CacheConfig{CapacityInsts: 64}, false},
		{"too-big", CacheConfig{CapacityInsts: int(archCapacityInsts) + 1}, false},
		{"policy-without-bound", CacheConfig{Policy: "flush-all"}, false},
		{"unknown-policy", CacheConfig{CapacityInsts: 4096, Policy: "random"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cache = tc.cc
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
}

func TestTransTableDeleteTombstones(t *testing.T) {
	tt := newTransTable()
	// Two keys colliding into one probe chain.
	g1, g2 := uint32(0x8048000), uint32(0x8048000+uint32(transTableEntries)*8)
	tt.Insert(g1, 0x4000000)
	tt.Insert(g2, 0x4000100)
	if !tt.Delete(g1, 0x4000000) {
		t.Fatal("delete failed")
	}
	if tt.Delete(g1, 0x4000000) {
		t.Fatal("double delete succeeded")
	}
	// g2 must remain reachable through the tombstone.
	if v, ok, _ := tt.Lookup(g2); !ok || v != 0x4000100 {
		t.Fatalf("lookup after delete: %v %v", v, ok)
	}
	if _, ok, _ := tt.Lookup(g1); ok {
		t.Fatal("deleted key still found")
	}
	// Stale deletes (value superseded) must be refused.
	tt.Insert(g1, 0x4000200)
	if tt.Delete(g1, 0x4000000) {
		t.Fatal("stale delete removed a superseded mapping")
	}
	if v, ok, _ := tt.Lookup(g1); !ok || v != 0x4000200 {
		t.Fatalf("superseded mapping lost: %v %v", v, ok)
	}
	if tt.Len() != 2 {
		t.Fatalf("len = %d, want 2", tt.Len())
	}
}
