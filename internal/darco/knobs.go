package darco

import (
	"flag"
	"fmt"
	"strconv"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
)

// Knobs is the run-knob schema of the infrastructure: one
// configuration delta that every entry point spells the same way. The
// cmds bind it to their flag set (BindFlags), a sweep grid embeds it in
// its base and in each axis value, serve.SubmitRequest embeds it as the
// overrides of the submit wire, and fuzz.Cell is one — so a knob has
// one name, one JSON key and one meaning. Zero values mean "not given"
// and leave the configuration untouched; Apply folds the delta into a
// Config.
type Knobs struct {
	// Mode selects the timing-simulator stream mode ("shared",
	// "app-only", "tol-only", "split").
	Mode string `json:"mode,omitempty"`
	// ISA pins the run to one guest frontend ("x86" or "rv32"), as
	// Config.ISA does. Entry points that resolve workload references
	// also redirect synthetic-catalog references to that frontend's
	// catalog (workload.RefForISA), so the same benchmark name runs
	// across frontends.
	ISA string `json:"isa,omitempty"`
	// OptLevel selects an optimization preset 0..3 (nil = keep; 0
	// disables SBM), Passes an explicit pipeline (overriding the
	// pipeline of presets 1..3; contradictory with preset 0, which
	// could never run it), Promote the tier-promotion policy.
	OptLevel *int   `json:"opt_level,omitempty"`
	Passes   string `json:"passes,omitempty"`
	Promote  string `json:"promote,omitempty"`
	// CCSize bounds the code cache in instruction slots; an explicit 0
	// restores the unbounded cache (clearing the policy too). CCPolicy
	// selects the eviction policy.
	CCSize   *int   `json:"cc_size,omitempty"`
	CCPolicy string `json:"cc_policy,omitempty"`
	// Cosim toggles co-simulation; MaxCycles bounds the run.
	Cosim     *bool  `json:"cosim,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// StreamBatch sets the simulator's stream refill size (> 0).
	StreamBatch int `json:"stream_batch,omitempty"`
	// Sample switches the run to sampled simulation under the given
	// plan; NoSample restores full detail (overriding a sampled base).
	Sample   *SamplePlan `json:"sample,omitempty"`
	NoSample bool        `json:"no_sample,omitempty"`
	// Timing replaces the whole host microarchitecture configuration
	// (paper Table I), the escape hatch for sweeping any timing
	// parameter without a dedicated knob.
	Timing *timing.Config `json:"timing,omitempty"`
}

// SamplePlan is the sampling-plan knob. Every is required; Interval 0
// and Warmup nil fall back to the sample.DefaultConfig values, so a
// bare Every selects a sensible plan; an explicit "warmup": 0 is
// honored.
type SamplePlan struct {
	Every    int     `json:"every"`
	Interval uint64  `json:"interval,omitempty"`
	Warmup   *uint64 `json:"warmup,omitempty"`
}

// Apply folds the knobs into cfg. It rejects what the delta alone
// shows to be wrong (an unknown mode, an out-of-range preset, preset 0
// with a pipeline, a degenerate sampling plan); the folded
// configuration is for the caller to check with Config.Validate once
// every delta is in, because one delta may leave a state the next
// completes (a grid axis naming a policy, another its capacity).
func (k *Knobs) Apply(cfg *Config) error {
	if k == nil {
		return nil
	}
	if k.Timing != nil {
		cfg.Timing = *k.Timing
	}
	if k.Mode != "" {
		m, err := timing.ParseMode(k.Mode)
		if err != nil {
			return err
		}
		cfg.Mode = m
	}
	if k.ISA != "" {
		cfg.ISA = k.ISA
	}
	if k.Cosim != nil {
		cfg.TOL.Cosim = *k.Cosim
	}
	if k.MaxCycles != 0 {
		cfg.MaxCycles = k.MaxCycles
	}
	if k.StreamBatch > 0 {
		cfg.Timing.StreamBatch = k.StreamBatch
	}
	if k.CCSize != nil {
		cfg.TOL.Cache.CapacityInsts = *k.CCSize
		if *k.CCSize == 0 {
			cfg.TOL.Cache.Policy = ""
		}
	}
	if k.CCPolicy != "" {
		cfg.TOL.Cache.Policy = k.CCPolicy
	}
	if k.OptLevel != nil {
		if *k.OptLevel == 0 && k.Passes != "" {
			return fmt.Errorf("darco: optimization level 0 disables SBM, so the pass pipeline %q would never run; drop one of the two", k.Passes)
		}
		if err := tol.ApplyOptLevel(&cfg.TOL, *k.OptLevel); err != nil {
			return err
		}
	}
	if k.Passes != "" {
		cfg.TOL.Passes = k.Passes
		cfg.TOL.OptLevel = ""
	}
	if k.Promote != "" {
		cfg.TOL.Promotion = k.Promote
	}
	if k.NoSample {
		cfg.Sampling = nil
	}
	if k.Sample != nil {
		sc := sample.DefaultConfig()
		sc.Every = k.Sample.Every
		if k.Sample.Interval > 0 {
			sc.Interval = k.Sample.Interval
		}
		if k.Sample.Warmup != nil {
			sc.Warmup = *k.Sample.Warmup
		}
		if err := sc.Validate(); err != nil {
			return err
		}
		cfg.Sampling = &sc
	}
	return nil
}

// BindFlags registers the run-knob flags the darco tools share —
// -isa -cosim -O -passes -promote -cc-size -cc-policy -sample
// -interval -warmup — on fs and returns the Knobs they fill in once fs
// is parsed. The sentinel values of the numeric flags (-O -1, and 0
// for -cc-size, -sample and -warmup) mean "not given" and leave the
// knob nil; -interval and -warmup only take effect together with
// -sample.
func BindFlags(fs *flag.FlagSet) *Knobs {
	k := &Knobs{Cosim: new(bool)}
	plan := new(SamplePlan)
	// intFlag parses like flag.Int and hands the number to set, which
	// stores it or clears the knob.
	intFlag := func(name, usage string, set func(n int)) {
		fs.Func(name, usage, func(s string) error {
			n, err := strconv.ParseInt(s, 0, strconv.IntSize)
			if err != nil {
				return err
			}
			set(int(n))
			return nil
		})
	}
	fs.StringVar(&k.ISA, "isa", "", "guest ISA frontend: x86 or rv32 (default: per-program; benchmark names resolve through the selected frontend's catalog)")
	fs.BoolVar(k.Cosim, "cosim", true, "verify execution against the authoritative emulator")
	intFlag("O", "optimization preset `level` 0..3 (-1 = default O2; 0 disables SBM)", func(n int) {
		k.OptLevel = given(n, n >= 0)
	})
	fs.StringVar(&k.Passes, "passes", "", "SBM optimization pipeline (comma-separated pass names; 'none' = empty)")
	fs.StringVar(&k.Promote, "promote", "", "tier-promotion policy: fixed, adaptive")
	intFlag("cc-size", "bound the code cache to this many instruction `slots` (0 = unbounded)", func(n int) {
		k.CCSize = given(n, n > 0)
	})
	fs.StringVar(&k.CCPolicy, "cc-policy", "", "code cache eviction policy: flush-all, fifo-region, lru-translation")
	intFlag("sample", "sampled simulation: measure every `N`th interval in detail (0 = full detailed run)", func(n int) {
		plan.Every, k.Sample = n, nil
		if n > 0 {
			k.Sample = plan
		}
	})
	fs.Uint64Var(&plan.Interval, "interval", 0, "sampled simulation: interval length in guest instructions (0 = default)")
	fs.Func("warmup", "sampled simulation: detailed warm-up `instructions` before each measured interval (0 = default)", func(s string) error {
		n, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return err
		}
		plan.Warmup = given(n, n > 0)
		return nil
	})
	return k
}

// given returns &v when ok and nil — "not given" — otherwise.
func given[T any](v T, ok bool) *T {
	if !ok {
		return nil
	}
	return &v
}
