package tol

import "fmt"

// noteEverySB is a minimal guest-stage pass: it visits every live
// trace instruction without transforming anything, showing the
// Pass contract (Name/Stage/Run → PassReport) that the cost model
// bills and Fig7b reports per pass.
type noteEverySB struct{}

func (noteEverySB) Name() string     { return "note" }
func (noteEverySB) Stage() PassStage { return StageGuest }

func (noteEverySB) Run(p *tracePlan) PassReport {
	visits := 0
	for i := range p.insts {
		if !p.insts[i].drop {
			visits++
		}
	}
	return PassReport{Pass: "note", Visits: visits}
}

// ExamplePass registers a custom optimization pass and selects it in
// a pipeline spec. Passes operate on the package's trace plan, so new
// passes live in this package; registration makes them available to
// Config.Passes specs, the -passes flag, and the per-pass SBM cost
// attribution. (The example is compile-checked only: the registry is
// global and a test run must not mutate it.)
func ExamplePass() {
	registerPass(noteEverySB{})

	cfg := DefaultConfig()
	cfg.Passes = "constprop,dce,note,rle,sched"
	if err := cfg.Validate(); err != nil {
		fmt.Println(err)
		return
	}
	names, _ := cfg.PipelineNames()
	fmt.Println(names)
}

// largestFirstPolicy evicts the largest translation first: coarse,
// but it frees the most contiguous space per unlink. It only needs
// the cache's exported surface, so policies like it could live in any
// package.
type largestFirstPolicy struct{}

func (largestFirstPolicy) Name() string { return "largest-first" }

func (largestFirstPolicy) Victims(c *CodeCache, need int) []*Translation {
	var big *Translation
	for _, tr := range c.Translations() {
		if big == nil || tr.HostEnd-tr.HostEntry > big.HostEnd-big.HostEntry {
			big = tr
		}
	}
	if big == nil {
		return nil
	}
	return []*Translation{big}
}

// ExampleRegisterEvictionPolicy registers a custom code-cache eviction
// policy and selects it in a bounded CacheConfig. (Compile-checked
// only, for the same registry-mutation reason as ExamplePass.)
func ExampleRegisterEvictionPolicy() {
	RegisterEvictionPolicy("largest-first", func() EvictionPolicy { return largestFirstPolicy{} })

	cfg := DefaultConfig()
	cfg.Cache = CacheConfig{CapacityInsts: 4096, Policy: "largest-first"}
	fmt.Println(cfg.Validate())
}
