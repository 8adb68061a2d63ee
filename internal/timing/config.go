// Package timing implements the timing simulator of the co-designed
// processor: a configurable in-order RISC host modeled after the
// paper's Table I — a 2-wide decoupled pipeline (Front-End, Instruction
// Queue, Back-End), Gshare branch predictor with BTB, two cache levels
// with PLRU replacement, a two-level data TLB, and a stride prefetcher.
//
// The simulator consumes a dynamic host-instruction stream in which
// every instruction is tagged with its owner (TOL or the emulated
// application) and, for TOL, the TOL component that produced it. Cycles
// and bubbles are attributed per owner and component, which is the
// mechanism behind all of the paper's figures.
package timing

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Size       int // bytes
	BlockSize  int // bytes
	Assoc      int
	HitLatency int // cycles
}

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Entries    int
	Assoc      int
	HitLatency int // cycles
}

// Config holds the microarchitectural parameters (paper Table I).
type Config struct {
	IssueWidth int
	IQSize     int

	// Branch prediction.
	BPHistoryBits     int // Gshare history register length
	BTBEntries        int
	BTBAssoc          int
	MispredictPenalty int // cycles, detected in EXE

	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	MemLatency int // main memory hit latency, cycles

	L1TLB TLBConfig
	L2TLB TLBConfig
	// TLBMissLatency is the page-walk cost on an L2 TLB miss. The walk
	// is served from main memory in this model.
	TLBMissLatency int

	PrefetcherEntries int // stride prefetcher table entries (0 disables)

	// StreamBatch is the number of stream instructions the simulator
	// pulls from its source per refill (0 = DefaultStreamBatch). It is
	// a host-side transport knob: results are identical for every value
	// (the stream-equality tests pin this), only simulation throughput
	// changes. It participates in config hashing like every other
	// field, so memoized results never alias across batch sizes.
	StreamBatch int
}

// DefaultStreamBatch is the stream refill size when Config.StreamBatch
// is zero: large enough to amortize the source call, small enough that
// cancellation polls (one per refill) stay prompt.
const DefaultStreamBatch = 1024

// DefaultConfig returns the configuration of Table I of the paper.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        2,
		IQSize:            16,
		BPHistoryBits:     12,
		BTBEntries:        512,
		BTBAssoc:          4,
		MispredictPenalty: 6,
		L1I:               CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1},
		L1D:               CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1},
		L2:                CacheConfig{Size: 512 << 10, BlockSize: 128, Assoc: 8, HitLatency: 16},
		MemLatency:        128,
		L1TLB:             TLBConfig{Entries: 64, Assoc: 8, HitLatency: 1},
		L2TLB:             TLBConfig{Entries: 256, Assoc: 8, HitLatency: 16},
		TLBMissLatency:    128,
		PrefetcherEntries: 256,
	}
}

// Limits Validate enforces. maxIssueWidth is the width of the issue
// stage's per-cycle bookkeeping; maxEntries bounds every table a
// Config sizes (IQ, cache lines, TLB and BTB entries, prefetcher, stream
// batch) and maxHistoryBits the Gshare counter table, so a
// configuration from outside the process cannot ask for an unbounded
// allocation.
const (
	maxIssueWidth  = 8
	maxEntries     = 1 << 20
	maxHistoryBits = 24
)

// Validate rejects configurations the simulator cannot build or would
// never finish: an empty issue stage or instruction queue, cache, TLB
// and BTB geometries the set-associative array refuses (power-of-two
// sets, power-of-two associativity up to 16), a
// prefetcher that is neither off nor a power of two, and tables beyond
// the bounds above. DefaultConfig passes.
func (c *Config) Validate() error {
	if c.IssueWidth < 1 || c.IssueWidth > maxIssueWidth {
		return fmt.Errorf("timing: IssueWidth must be 1..%d (got %d)", maxIssueWidth, c.IssueWidth)
	}
	if c.IQSize < 1 || c.IQSize > maxEntries {
		return fmt.Errorf("timing: IQSize must be 1..%d (got %d)", maxEntries, c.IQSize)
	}
	if c.BPHistoryBits < 1 || c.BPHistoryBits > maxHistoryBits {
		return fmt.Errorf("timing: BPHistoryBits must be 1..%d (got %d)", maxHistoryBits, c.BPHistoryBits)
	}
	if err := geometry("BTB", c.BTBEntries, c.BTBAssoc); err != nil {
		return err
	}
	for _, l := range []struct {
		name string
		cfg  CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}} {
		if !pow2(l.cfg.BlockSize) {
			return fmt.Errorf("timing: %s block size must be a power of two (got %d)", l.name, l.cfg.BlockSize)
		}
		if err := geometry(l.name, l.cfg.Size/l.cfg.BlockSize, l.cfg.Assoc); err != nil {
			return err
		}
	}
	if err := geometry("L1 TLB", c.L1TLB.Entries, c.L1TLB.Assoc); err != nil {
		return err
	}
	if err := geometry("L2 TLB", c.L2TLB.Entries, c.L2TLB.Assoc); err != nil {
		return err
	}
	if n := c.PrefetcherEntries; n != 0 && (!pow2(n) || n > maxEntries) {
		return fmt.Errorf("timing: PrefetcherEntries must be 0 or a power of two up to %d (got %d)", maxEntries, n)
	}
	if c.StreamBatch < 0 || c.StreamBatch > maxEntries {
		return fmt.Errorf("timing: StreamBatch must be 0..%d (got %d)", maxEntries, c.StreamBatch)
	}
	return nil
}

// geometry checks one set-associative table of entries lines.
func geometry(name string, entries, assoc int) error {
	if !pow2(assoc) || assoc > 16 {
		return fmt.Errorf("timing: %s associativity must be a power of two up to 16 (got %d)", name, assoc)
	}
	if entries > maxEntries || !pow2(entries/assoc) {
		return fmt.Errorf("timing: %s needs a power-of-two number of sets and at most %d entries (got %d entries, %d ways)",
			name, maxEntries, entries, assoc)
	}
	return nil
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }
