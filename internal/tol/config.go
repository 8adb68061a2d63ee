// Package tol implements the Translation Optimization Layer (TOL) of
// the co-designed processor — the paper's object of study. TOL has
// three execution modes:
//
//   - IM: interpretation mode. Guest instructions are decoded and
//     executed one at a time against the co-design component's guest
//     state.
//   - BBM: basic-block translation mode. When a branch target executes
//     more than IM/BBth times, its basic block is translated to host
//     code, stored in the code cache, and instrumented with profiling
//     counters.
//   - SBM: superblock and optimization mode. When a basic block
//     executes more than BB/SBth times, the profile guides formation of
//     a superblock, which is optimized by the configurable pass
//     pipeline and placed in the code cache.
//
// The SBM optimizer is a pipeline of registered passes (see Pass and
// Config.Passes). The registered passes are:
//
//   - constprop: copy and constant propagation with constant folding
//     (including folded flag results and constant side exits),
//   - dce: dead code elimination (unused register writes and dead flag
//     definitions between side exits),
//   - rle: redundant-load elimination with register allocation
//     (repeated loads of one location are cached in the allocatable
//     host registers r46..r63),
//   - sched: list instruction scheduling on the emitted host code
//     (sched.go).
//
// The default (O2) pipeline runs all four in that order; Config.Passes
// and the O0–O3 presets select alternatives. A doc test
// (TestPackageDocListsRegisteredPasses) keeps this list in sync with
// the registry.
//
// Tier promotion is likewise pluggable: a PromotionPolicy (the paper's
// fixed thresholds by default, or the adaptive back-off policy)
// decides when interpreted code is translated and when translated
// blocks are promoted.
//
// Translations are connected by chaining (direct-branch patching) and
// indirect branches probe an inline Indirect Branch Translation Cache
// (IBTC); both mechanisms avoid falling back to TOL.
//
// The code cache holding the translations is a managed resource: left
// unbounded (the default) it only ever grows, but Config.Cache can
// bound it, in which case an eviction policy (flush-all, fifo-region
// or lru-translation — see EvictionPolicy and
// RegisteredEvictionPolicies) selects victims under pressure. Eviction
// unlinks a translation everywhere it is reachable — translation
// table, IBTC lines, and chain patches in surviving code — and the
// engine transparently retranslates on re-entry, counting the
// lifecycle churn in Stats (Evictions, Retranslations, FlushCount,
// CacheOccupancyPeak).
//
// TOL's own work — interpreting, translating, optimizing, looking up
// the code cache, chaining — is rendered into host instruction streams
// by the cost model (cost.go) with real simulated addresses, so the
// timing simulator observes TOL exactly as the paper's infrastructure
// does: as a software layer competing with the application for
// microarchitectural resources.
package tol

import (
	"fmt"
	"strings"
)

// Config controls the TOL policies.
type Config struct {
	// BBThreshold is IM/BBth: interpretations of a branch target before
	// its basic block is translated. The paper uses 5. It parameterizes
	// the configured promotion policy (see Promotion).
	BBThreshold int

	// SBThreshold is BB/SBth: executions of a translated basic block
	// before it is promoted to a superblock. The paper uses 10K at a 4B
	// instruction budget; the scaled default here preserves the ratio
	// between repetition and threshold at the smaller default budgets.
	// It parameterizes the configured promotion policy.
	SBThreshold int

	// Promotion selects the tier-promotion policy consulted by the
	// engine and compiled into the BBM instrumentation stubs: "fixed"
	// (the paper's two-threshold policy, the default when empty) or
	// "adaptive" (threshold back-off as superblocks accumulate).
	Promotion string `json:",omitempty"`

	// Passes selects the SBM optimization pipeline as a comma-separated
	// list of registered pass names (e.g. "constprop,dce,rle,sched").
	// Empty selects the OptLevel preset; the sentinel "none" is the
	// explicitly empty pipeline and is valid only with EnableSBM=false.
	Passes string `json:",omitempty"`

	// OptLevel selects a preset pipeline ("O0".."O3") when Passes is
	// empty. Empty means "O2", the paper's full optimizer — so Config
	// literals predating the pipeline API keep their behaviour.
	OptLevel string `json:",omitempty"`

	// MaxSBBlocks and MaxSBGuestInsts bound superblock formation.
	MaxSBBlocks     int
	MaxSBGuestInsts int

	// Cache bounds the translation code cache and selects the eviction
	// policy consulted under pressure (see CacheConfig and
	// RegisteredEvictionPolicies). The zero value is the unbounded
	// cache: no eviction ever happens and behaviour is cycle-identical
	// to the pre-bounded infrastructure.
	Cache CacheConfig

	// Cosim enables continuous co-simulation: an authoritative guest
	// emulator runs in lockstep and architectural state is compared at
	// every TOL transition and translation boundary.
	Cosim bool

	// Feature switches for ablation studies.
	EnableSBM      bool // disable to stop at BBM
	EnableChaining bool // disable to transition to TOL at every block end
	EnableIBTC     bool // disable to make every indirect branch a TOL call

	// Fault injects a named, deliberate translator bug (see Faults) for
	// mutation-testing the differential fuzzing oracle: the injected
	// miscompilation must be caught by co-simulation. It participates in
	// the JSON form (and therefore in memo-cache keys), so faulted and
	// clean runs never alias. Never set outside verification runs.
	Fault string `json:",omitempty"`

	// MaxGuestInsts aborts runaway guest executions (0 = no limit).
	MaxGuestInsts uint64
}

// DefaultConfig returns the paper's thresholds scaled per DESIGN.md
// (IM/BBth = 5 as in the paper; BB/SBth scaled to the default workload
// sizes), with all features enabled and the default (O2) pipeline and
// fixed promotion policy.
func DefaultConfig() Config {
	return Config{
		BBThreshold:     5,
		SBThreshold:     300,
		MaxSBBlocks:     16,
		MaxSBGuestInsts: 200,
		Cosim:           true,
		EnableSBM:       true,
		EnableChaining:  true,
		EnableIBTC:      true,
		MaxGuestInsts:   0,
	}
}

// Validate rejects configurations that would fail deep inside a run
// (or silently simulate garbage): negative thresholds, degenerate
// superblock bounds, unknown pass or policy names, and an empty
// optimization pipeline with SBM enabled. The darco controller calls
// it before every run so bad configs fail fast with a clear error.
func (c *Config) Validate() error {
	if c.BBThreshold < 0 {
		return fmt.Errorf("tol: BBThreshold must be >= 0 (got %d)", c.BBThreshold)
	}
	if c.SBThreshold < 0 {
		return fmt.Errorf("tol: SBThreshold must be >= 0 (got %d)", c.SBThreshold)
	}
	if c.EnableSBM {
		if c.MaxSBBlocks < 1 {
			return fmt.Errorf("tol: MaxSBBlocks must be >= 1 when SBM is enabled (got %d)", c.MaxSBBlocks)
		}
		if c.MaxSBGuestInsts < 1 {
			return fmt.Errorf("tol: MaxSBGuestInsts must be >= 1 when SBM is enabled (got %d)", c.MaxSBGuestInsts)
		}
	}
	pipeline, err := c.Pipeline()
	if err != nil {
		return err
	}
	if c.EnableSBM && len(pipeline) == 0 {
		return fmt.Errorf("tol: empty optimization pipeline with SBM enabled; disable SBM (ApplyOptLevel(cfg, 0) does both)")
	}
	if _, err := c.NewPromotionPolicy(); err != nil {
		return err
	}
	if !validFault(c.Fault) {
		return fmt.Errorf("tol: unknown fault %q (registered: %s)", c.Fault, strings.Join(Faults(), ", "))
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	return nil
}
