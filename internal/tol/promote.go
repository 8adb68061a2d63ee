package tol

import (
	"fmt"
	"strings"

	"repro/internal/registry"
)

// PromotionPolicy decides when guest code climbs the translation
// tiers. It replaces the raw IM/BBth and BB/SBth threshold comparisons
// that used to be hardcoded in the engine and the BBM instrumentation
// stub, so promotion behaviour is a pluggable axis of the
// characterization (like the pass pipeline).
//
// The engine consults ShouldTranslate on every profiled branch target;
// the translator consults SBThreshold once per BBM translation and
// compiles the returned count into the block's profiling
// instrumentation (a real load/compare/branch sequence in the code
// cache — once emitted, that block's bar is fixed, exactly as in a
// real TOL). Policies may be stateful; the engine owns one instance
// per run, so results stay deterministic and Session-cacheable.
type PromotionPolicy interface {
	Name() string

	// ShouldTranslate reports whether a branch target that has now been
	// interpreted count times should be translated to a BBM block.
	ShouldTranslate(target uint32, count uint32) bool

	// SBThreshold returns the execution count at which the BBM block at
	// entry promotes to a superblock.
	SBThreshold(entry uint32) uint32

	// OnSuperblock informs the policy that a superblock was created for
	// seed, letting adaptive policies adjust subsequent thresholds.
	OnSuperblock(seed uint32)
}

// PromotionFactory builds a policy instance parameterized by the
// config's BBThreshold/SBThreshold fields.
type PromotionFactory func(cfg *Config) PromotionPolicy

var promotionRegistry = registry.New[PromotionFactory]("tol: duplicate promotion policy %q")

func init() {
	promotionRegistry.Register("fixed", func(cfg *Config) PromotionPolicy {
		return &FixedPromotion{BB: cfg.BBThreshold, SB: cfg.SBThreshold}
	})
	promotionRegistry.Register("adaptive", func(cfg *Config) PromotionPolicy {
		return &AdaptivePromotion{BB: cfg.BBThreshold, SB: cfg.SBThreshold}
	})
}

// RegisteredPromotionPolicies returns the registered policy names,
// sorted.
func RegisteredPromotionPolicies() []string { return promotionRegistry.Sorted() }

// NewPromotionPolicy resolves the configured policy ("" selects the
// paper's fixed-threshold policy).
func (c *Config) NewPromotionPolicy() (PromotionPolicy, error) {
	spec := c.Promotion
	if spec == "" {
		spec = "fixed"
	}
	f, ok := promotionRegistry.Lookup(spec)
	if !ok {
		return nil, fmt.Errorf("tol: unknown promotion policy %q (registered: %s)",
			spec, strings.Join(RegisteredPromotionPolicies(), ", "))
	}
	return f(c), nil
}

// FixedPromotion is the paper's policy: two fixed thresholds, IM/BBth
// for interpretation-to-BBM and BB/SBth for BBM-to-SBM.
type FixedPromotion struct {
	BB int // IM/BBth
	SB int // BB/SBth
}

func (p *FixedPromotion) Name() string { return "fixed" }

func (p *FixedPromotion) ShouldTranslate(_ uint32, count uint32) bool {
	return int(count) > p.BB
}

func (p *FixedPromotion) SBThreshold(uint32) uint32 { return uint32(p.SB) }

func (p *FixedPromotion) OnSuperblock(uint32) {}

// Adaptive back-off parameters: every adaptiveStep superblocks the
// promotion bar doubles, up to adaptiveMaxShift doublings.
const (
	adaptiveStep     = 8
	adaptiveMaxShift = 4
)

// AdaptivePromotion backs off as superblocks accumulate: each batch of
// adaptiveStep superblocks doubles the BB/SBth bar for subsequent
// blocks (up to 2^adaptiveMaxShift×). It models the diminishing
// returns of aggressively optimizing ever-colder code — the hottest
// loops promote at the base threshold, while the long tail must prove
// substantially more reuse before SBM is spent on it.
type AdaptivePromotion struct {
	BB    int // IM/BBth
	SB    int // base BB/SBth
	built int // superblocks created so far
}

func (p *AdaptivePromotion) Name() string { return "adaptive" }

func (p *AdaptivePromotion) ShouldTranslate(_ uint32, count uint32) bool {
	return int(count) > p.BB
}

func (p *AdaptivePromotion) SBThreshold(uint32) uint32 {
	shift := p.built / adaptiveStep
	if shift > adaptiveMaxShift {
		shift = adaptiveMaxShift
	}
	return uint32(p.SB) << shift
}

func (p *AdaptivePromotion) OnSuperblock(uint32) { p.built++ }
