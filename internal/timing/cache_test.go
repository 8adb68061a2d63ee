package timing

import (
	"math/rand"
	"testing"
)

func TestPLRUCanonicalSequences(t *testing.T) {
	// Tree-PLRU is an approximation of LRU; these are the canonical
	// textbook sequences for a 4-way tree.
	var tr plruTree
	for w := 0; w < 4; w++ {
		tr.touch(w, 4)
	}
	// In-order fill 0,1,2,3: the victim is the true LRU way 0.
	if v := tr.victim(4); v != 0 {
		t.Fatalf("victim after 0,1,2,3 = %d, want 0", v)
	}
	// Re-touch 0: root points right, right node points away from 3.
	tr.touch(0, 4)
	if v := tr.victim(4); v != 2 {
		t.Fatalf("victim after ...,0 = %d, want 2", v)
	}
	// In-order fill generalizes: for all supported ways the victim
	// after filling 0..ways-1 in order is way 0.
	for _, ways := range []int{2, 4, 8, 16} {
		var tw plruTree
		for w := 0; w < ways; w++ {
			tw.touch(w, ways)
		}
		if v := tw.victim(ways); v != 0 {
			t.Errorf("ways=%d: victim after in-order fill = %d, want 0", ways, v)
		}
	}
}

func TestPLRUVictimNeverMRU(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, ways := range []int{4, 8} {
		var tr plruTree
		for trial := 0; trial < 1000; trial++ {
			w := r.Intn(ways)
			tr.touch(w, ways)
			if v := tr.victim(ways); v == w {
				t.Fatalf("ways=%d: victim is the MRU way %d", ways, w)
			}
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	var st CacheStats
	c := newCache(CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1}, &st)
	if c.Access(0x1000, OwnerApp) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000, OwnerApp) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x103c, OwnerApp) {
		t.Fatal("same block should hit")
	}
	if c.Access(0x1040, OwnerApp) {
		t.Fatal("next block should miss")
	}
	if st.Misses[OwnerApp] != 2 || st.Accesses[OwnerApp] != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	// 1KB, 64B blocks, 4-way: 4 sets. 5 blocks mapping to set 0 must evict.
	c := newCache(CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1}, new(CacheStats))
	setStride := uint32(64 * 4) // sets * blocksize
	for i := uint32(0); i < 5; i++ {
		c.Access(i*setStride, OwnerApp)
	}
	// First block must have been evicted (PLRU with in-order fills).
	if c.Access(0, OwnerApp) {
		t.Fatal("block 0 should have been evicted")
	}
}

func TestCacheOwnersCountedSeparately(t *testing.T) {
	var st CacheStats
	c := newCache(CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1}, &st)
	c.Access(0, OwnerApp)
	c.Access(0x40, OwnerTOL)
	if st.Accesses[OwnerApp] != 1 || st.Accesses[OwnerTOL] != 1 {
		t.Fatalf("per-owner accesses: %+v", st)
	}
	if st.OwnerMissRate(OwnerApp) != 1 || st.OwnerMissRate(OwnerTOL) != 1 {
		t.Fatal("owner miss rates")
	}
	if st.MissRate() != 1 {
		t.Fatal("miss rate")
	}
}

func TestCacheInterOwnerPollution(t *testing.T) {
	// The interaction mechanism: TOL filling a set evicts App lines.
	c := newCache(CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1}, new(CacheStats))
	setStride := uint32(64 * 4)
	c.Access(0, OwnerApp)
	for i := uint32(1); i <= 4; i++ {
		c.Access(i*setStride, OwnerTOL)
	}
	if c.Access(0, OwnerApp) {
		t.Fatal("TOL fills should have evicted the app line")
	}
}

func TestCacheInsertPrefetch(t *testing.T) {
	var st CacheStats
	c := newCache(CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1}, &st)
	c.Insert(0x2000)
	if !c.Access(0x2000, OwnerApp) {
		t.Fatal("inserted block should hit")
	}
	if st.Accesses[OwnerApp] != 1 || st.Misses[OwnerApp] != 0 {
		t.Fatalf("insert must not count as access: %+v", st)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry should panic")
		}
	}()
	newCache(CacheConfig{Size: 1000, BlockSize: 64, Assoc: 3, HitLatency: 1}, new(CacheStats))
}

func TestTLBBasic(t *testing.T) {
	tlb := newCache(tlbCache(TLBConfig{Entries: 64, Assoc: 8, HitLatency: 1}), new(CacheStats))
	if tlb.Access(0x1000, OwnerApp) {
		t.Fatal("cold TLB access should miss")
	}
	if !tlb.Access(0x1234, OwnerApp) {
		t.Fatal("same page should hit")
	}
	if tlb.Access(0x2000, OwnerApp) {
		t.Fatal("different page should miss")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := newCache(tlbCache(TLBConfig{Entries: 8, Assoc: 8, HitLatency: 1}), new(CacheStats)) // 1 set
	for p := uint32(0); p < 9; p++ {
		tlb.Access(p*4096, OwnerApp)
	}
	if tlb.Access(0, OwnerApp) {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestPredictorLearnsLoop(t *testing.T) {
	cfg := DefaultConfig()
	var st BranchStats
	p := newPredictor(&cfg, &st)
	// A loop branch taken 50x then not taken: after warm-up the
	// predictor should predict taken.
	// Gshare folds the 12-bit global history into the index, so the
	// first ~12 iterations train fresh counters while the history
	// register fills with 1s; after that the prediction is stable.
	d := DynInst{PC: 0x4000, IsBranch: true, IsCond: true, Taken: true, Target: 0x3000, Owner: OwnerApp}
	wrongEarly, wrongLate := 0, 0
	for i := 0; i < 50; i++ {
		if !p.PredictAndTrain(&d) {
			if i < 30 {
				wrongEarly++
			} else {
				wrongLate++
			}
		}
	}
	if wrongLate != 0 {
		t.Fatalf("loop branch mispredicted %d times after warm-up", wrongLate)
	}
	if wrongEarly > 20 {
		t.Fatalf("warm-up took %d mispredictions", wrongEarly)
	}
	if st.Branches[OwnerApp] != 50 {
		t.Fatalf("branches = %d", st.Branches[OwnerApp])
	}
}

func TestPredictorIndirectTargetChange(t *testing.T) {
	cfg := DefaultConfig()
	p := newPredictor(&cfg, new(BranchStats))
	d := DynInst{PC: 0x5000, IsBranch: true, IsIndirect: true, Taken: true, Target: 0x100, Owner: OwnerTOL}
	p.PredictAndTrain(&d) // cold: mispredict
	if p.PredictAndTrain(&d) != true {
		t.Fatal("stable indirect target should predict correctly")
	}
	d.Target = 0x200
	if p.PredictAndTrain(&d) {
		t.Fatal("changed indirect target must mispredict")
	}
}

func TestPredictorUnconditionalDirectLearns(t *testing.T) {
	cfg := DefaultConfig()
	p := newPredictor(&cfg, new(BranchStats))
	d := DynInst{PC: 0x6000, IsBranch: true, Taken: true, Target: 0x7000}
	p.PredictAndTrain(&d)
	if !p.PredictAndTrain(&d) {
		t.Fatal("direct jump should hit BTB on second sight")
	}
}

func TestPrefetcherDetectsStride(t *testing.T) {
	var issued uint64
	p := newStridePrefetcher(256, &issued)
	pc := uint32(0x1000)
	var got []uint32
	for i := uint32(0); i < 6; i++ {
		if pf := p.Observe(pc, 0x8000+i*64); pf != 0 {
			got = append(got, pf)
		}
	}
	if len(got) == 0 {
		t.Fatal("stride never detected")
	}
	// Prefetches must be one stride ahead.
	for _, a := range got {
		if (a-0x8000)%64 != 0 {
			t.Fatalf("bad prefetch address %#x", a)
		}
	}
	if issued != uint64(len(got)) {
		t.Fatalf("Issued = %d, want %d", issued, len(got))
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	var issued uint64
	p := newStridePrefetcher(256, &issued)
	r := rand.New(rand.NewSource(9))
	pc := uint32(0x2000)
	for i := 0; i < 100; i++ {
		if pf := p.Observe(pc, r.Uint32()); pf != 0 {
			// Random strides can occasionally repeat; just ensure it is rare.
			if issued > 10 {
				t.Fatal("prefetcher fires too often on random addresses")
			}
		}
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	p := newStridePrefetcher(0, nil)
	for i := uint32(0); i < 10; i++ {
		if pf := p.Observe(0x1000, 0x8000+i*64); pf != 0 {
			t.Fatal("disabled prefetcher issued a prefetch")
		}
	}
}

func TestDefaultConfigMatchesPaperTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.IssueWidth != 2 {
		t.Error("issue width must be 2")
	}
	if cfg.IQSize != 16 {
		t.Error("IQ size must be 16")
	}
	if cfg.BPHistoryBits != 12 {
		t.Error("history register must be 12 bits")
	}
	if cfg.L1I.Size != 32<<10 || cfg.L1I.BlockSize != 64 || cfg.L1I.Assoc != 4 || cfg.L1I.HitLatency != 1 {
		t.Error("L1I mismatch with Table I")
	}
	if cfg.L1D.Size != 32<<10 || cfg.L1D.BlockSize != 64 || cfg.L1D.Assoc != 4 || cfg.L1D.HitLatency != 1 {
		t.Error("L1D mismatch with Table I")
	}
	if cfg.L2.Size != 512<<10 || cfg.L2.BlockSize != 128 || cfg.L2.Assoc != 8 || cfg.L2.HitLatency != 16 {
		t.Error("L2 mismatch with Table I")
	}
	if cfg.MemLatency != 128 {
		t.Error("memory latency must be 128")
	}
	if cfg.L1TLB.Entries != 64 || cfg.L1TLB.Assoc != 8 || cfg.L1TLB.HitLatency != 1 {
		t.Error("L1 TLB mismatch with Table I")
	}
	if cfg.L2TLB.Entries != 256 || cfg.L2TLB.Assoc != 8 || cfg.L2TLB.HitLatency != 16 {
		t.Error("L2 TLB mismatch with Table I")
	}
	if cfg.PrefetcherEntries != 256 {
		t.Error("prefetcher entries must be 256")
	}
	if cfg.MispredictPenalty != 6 {
		t.Error("misprediction penalty must be 6")
	}
}

// TestValidateGuardsNewSimulator: Validate accepts DefaultConfig and
// the smallest buildable geometries — which NewSimulator then builds —
// and rejects every configuration that would panic in NewSimulator,
// overflow the issue stage or ask for an unbounded table.
func TestValidateGuardsNewSimulator(t *testing.T) {
	edit := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	for i, c := range []Config{
		DefaultConfig(),
		edit(func(c *Config) {
			c.IssueWidth, c.IQSize, c.BPHistoryBits = 8, 1, 1
			c.BTBEntries, c.BTBAssoc = 1, 1
			c.L1I = CacheConfig{Size: 64, BlockSize: 64, Assoc: 1}
			c.L1TLB = TLBConfig{Entries: 16, Assoc: 16}
			c.PrefetcherEntries = 0
		}),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("buildable config %d rejected: %v", i, err)
			continue
		}
		NewSimulator(c, ModeSplit)
	}
	for name, c := range map[string]Config{
		"zero":             {},
		"partial override": {MemLatency: 200},
		"issue width 9":    edit(func(c *Config) { c.IssueWidth = 9 }),
		"empty IQ":         edit(func(c *Config) { c.IQSize = 0 }),
		"history bits 40":  edit(func(c *Config) { c.BPHistoryBits = 40 }),
		"BTB 3 ways":       edit(func(c *Config) { c.BTBAssoc = 3 }),
		"L1D 48 B blocks":  edit(func(c *Config) { c.L1D.BlockSize = 48 }),
		"L1I 3 sets":       edit(func(c *Config) { c.L1I.Size = 3 * 64 * 4 }),
		"L2 1 TiB":         edit(func(c *Config) { c.L2.Size = 1 << 40 }),
		"L1 TLB 32 ways":   edit(func(c *Config) { c.L1TLB = TLBConfig{Entries: 64, Assoc: 32} }),
		"L2 TLB no ways":   edit(func(c *Config) { c.L2TLB.Assoc = 0 }),
		"prefetcher 3":     edit(func(c *Config) { c.PrefetcherEntries = 3 }),
		"stream batch -1":  edit(func(c *Config) { c.StreamBatch = -1 }),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
