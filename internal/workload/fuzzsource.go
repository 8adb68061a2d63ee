package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/strictjson"
)

// The fuzz source generates random-but-valid benchmark Specs from a
// seed, biased toward the program shapes that stress the translator:
// hot loops whose execution counts hover around the promotion
// thresholds, dense indirect-branch dispatchers exercising the IBTC,
// working sets reaching up to the jump-table region, and phased-style
// working-set shifts. References are "fuzz:<seed>[/<profile>]":
//
//	fuzz:42             profile "mixed" with seed 42
//	fuzz:42/indirect    indirect-branch-heavy program, seed 42
//
// The same generator feeds the differential-fuzzing oracle
// (internal/fuzz), the fuzzrun driver and the native go-fuzz harnesses;
// every generated spec passes Validate and stays within a bounded
// dynamic instruction budget so a single case never dominates a run.

// fuzzDefaultProfile is the profile used when a fuzz: reference names
// only a seed.
const fuzzDefaultProfile = "mixed"

// fuzzMaxDyn bounds the estimated dynamic guest instructions of a
// generated spec; Clamp enforces it after profile-specific drawing.
const fuzzMaxDyn = 500_000

// FuzzProfiles lists the generation biases accepted by GenSpec and the
// fuzz: reference form.
func FuzzProfiles() []string {
	return []string{"mixed", "hot", "indirect", "mem", "shift", "tiny", "rv32"}
}

// GenSpec deterministically generates a valid benchmark spec from a
// seed under a profile's bias. The same (seed, profile) pair always
// yields the same spec.
func GenSpec(seed int64, profile string) (Spec, error) {
	if profile == "" {
		profile = fuzzDefaultProfile
	}
	// Decorrelate the generator streams of different profiles on the
	// same seed without losing determinism.
	h := int64(0)
	for _, c := range profile {
		h = h*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed ^ h<<17))

	s := Spec{
		Name:  fmt.Sprintf("fuzz-%s-%d", profile, seed),
		Suite: Suites()[r.Intn(len(Suites()))],
		Seed:  seed,
	}
	switch profile {
	case "mixed":
		// Union of the biased ranges: anything the other profiles can
		// produce, the mixed profile can stumble into.
		s.HotKernels = r.Intn(5)
		s.KernelLen = 4 + r.Intn(40)
		s.KernelIter = nearThreshold(r)
		s.OuterIters = 1 + r.Intn(8)
		s.ColdBlocks = r.Intn(12)
		s.ColdLen = 4 + r.Intn(40)
		s.WarmBlocks = r.Intn(8)
		s.WarmLen = 4 + r.Intn(30)
		s.WarmIters = r.Intn(12)
		if r.Intn(2) == 0 {
			s.Fanout = 1 + r.Intn(64)
			s.DispatchIters = 1 + r.Intn(150)
			s.CaseCalls = r.Intn(2) == 0
		}
		s.UseCalls = r.Intn(2) == 0
		s.Irregular = r.Intn(3) == 0
		s.FPFrac, s.MemFrac, s.BranchFrac = fracs(r, 0.8)
		s.Footprint = pow2(r, 10, 23)
		s.Stride = pow2(r, 2, 9)

	case "hot":
		// Hot loops crossing (or hovering just under) the IM/BB and
		// BB/SB promotion thresholds — the tier-transition stressor.
		s.HotKernels = 1 + r.Intn(4)
		s.KernelLen = 6 + r.Intn(30)
		s.KernelIter = nearThreshold(r)
		s.OuterIters = 1 + r.Intn(4)
		s.ColdBlocks = r.Intn(4)
		s.ColdLen = 6 + r.Intn(20)
		s.WarmBlocks = r.Intn(4)
		s.WarmLen = 4 + r.Intn(16)
		s.WarmIters = 3 + r.Intn(6) // IM/BBth ballpark
		s.UseCalls = r.Intn(2) == 0
		s.FPFrac, s.MemFrac, s.BranchFrac = fracs(r, 0.6)
		s.Footprint = pow2(r, 10, 16)
		s.Stride = pow2(r, 2, 6)

	case "indirect":
		// Dense indirect branches through wide jump tables — the IBTC
		// and chaining stressor.
		s.Fanout = 8 + r.Intn(57) // 8..64
		s.DispatchIters = 40 + r.Intn(160)
		s.CaseCalls = r.Intn(2) == 0
		s.UseCalls = r.Intn(2) == 0
		s.OuterIters = 2 + r.Intn(6)
		s.HotKernels = r.Intn(3)
		s.KernelLen = 4 + r.Intn(16)
		s.KernelIter = 5 + r.Intn(60)
		s.FPFrac, s.MemFrac, s.BranchFrac = fracs(r, 0.5)
		s.Footprint = pow2(r, 10, 14)
		s.Stride = 4

	case "mem":
		// Memory-heavy kernels with footprints biased toward
		// maxFootprint — working sets adjacent to the jump-table page —
		// and strides/irregularity exercising the rle alias discipline.
		s.HotKernels = 1 + r.Intn(3)
		s.KernelLen = 10 + r.Intn(40)
		s.KernelIter = 50 + r.Intn(400)
		s.OuterIters = 1 + r.Intn(4)
		s.MemFrac = 0.3 + 0.3*r.Float64()
		s.FPFrac = 0.1 * r.Float64()
		s.BranchFrac = 0.1 * r.Float64()
		s.Footprint = pow2(r, 18, 23) // up to maxFootprint
		s.Stride = pow2(r, 2, 9)
		s.Irregular = r.Intn(2) == 0
		s.UseCalls = r.Intn(2) == 0

	case "shift":
		// Phased-style behaviour inside one program: many outer
		// iterations with a warm region that dies partway through (its
		// countdown expires), shifting the executed working set.
		s.OuterIters = 8 + r.Intn(8)
		s.HotKernels = 2 + r.Intn(3)
		s.KernelLen = 8 + r.Intn(24)
		s.KernelIter = 20 + r.Intn(100)
		s.WarmBlocks = 2 + r.Intn(6)
		s.WarmLen = 8 + r.Intn(24)
		s.WarmIters = 2 + r.Intn(6) // expires mid-run: a phase change
		s.ColdBlocks = 2 + r.Intn(6)
		s.ColdLen = 8 + r.Intn(24)
		if r.Intn(2) == 0 {
			s.Fanout = 4 + r.Intn(20)
			s.DispatchIters = 10 + r.Intn(60)
		}
		s.FPFrac, s.MemFrac, s.BranchFrac = fracs(r, 0.7)
		s.Footprint = pow2(r, 16, 22)
		s.Stride = pow2(r, 2, 8)
		s.Irregular = r.Intn(2) == 0

	case "tiny":
		// Minimal programs: the shapes minimized reproducers converge
		// to, exercised directly.
		s.HotKernels = r.Intn(2)
		s.KernelLen = 1 + r.Intn(8)
		s.KernelIter = 1 + r.Intn(12)
		s.OuterIters = 1 + r.Intn(3)
		s.ColdBlocks = r.Intn(2)
		s.ColdLen = 1 + r.Intn(6)
		if r.Intn(3) == 0 {
			s.Fanout = 1 + r.Intn(4)
			s.DispatchIters = 1 + r.Intn(6)
		}
		s.FPFrac, s.MemFrac, s.BranchFrac = fracs(r, 0.5)
		s.Footprint = 1 << 10
		s.Stride = 4

	case "rv32":
		// The mixed ranges retargeted to the RV32I frontend: same
		// structural coverage (threshold-straddling loops, dispatchers,
		// irregular memory) minus FP, which RV32I does not have. Keeping
		// the shapes aligned with "mixed" lets the differential oracle
		// compare tier behaviour across frontends on like programs.
		s.ISA = "rv32"
		s.HotKernels = r.Intn(5)
		s.KernelLen = 4 + r.Intn(40)
		s.KernelIter = nearThreshold(r)
		s.OuterIters = 1 + r.Intn(8)
		s.ColdBlocks = r.Intn(12)
		s.ColdLen = 4 + r.Intn(40)
		s.WarmBlocks = r.Intn(8)
		s.WarmLen = 4 + r.Intn(30)
		s.WarmIters = r.Intn(12)
		if r.Intn(2) == 0 {
			s.Fanout = 1 + r.Intn(64)
			s.DispatchIters = 1 + r.Intn(150)
			s.CaseCalls = r.Intn(2) == 0
		}
		s.UseCalls = r.Intn(2) == 0
		s.Irregular = r.Intn(3) == 0
		_, s.MemFrac, s.BranchFrac = fracs(r, 0.8)
		s.Footprint = pow2(r, 10, 23)
		s.Stride = pow2(r, 2, 9)

	default:
		return Spec{}, fmt.Errorf("workload: unknown fuzz profile %q (want %s)",
			profile, strings.Join(FuzzProfiles(), ", "))
	}
	if s.HotKernels > 0 && s.KernelIter == 0 {
		s.KernelIter = 1
	}
	s = s.Clamp(fuzzMaxDyn)
	if err := s.Validate(); err != nil {
		// Unreachable by construction; fail loudly rather than hand an
		// invalid spec to a fuzzing harness that assumes validity.
		return Spec{}, fmt.Errorf("workload: generated spec invalid: %w", err)
	}
	return s, nil
}

// nearThreshold draws a kernel iteration count biased to the promotion
// boundaries: around IM/BBth (block translated or not), around BB/SBth
// (superblock formed or not), and comfortably past it.
func nearThreshold(r *rand.Rand) int {
	switch r.Intn(3) {
	case 0:
		return 3 + r.Intn(6) // straddles the default BBThreshold (5)
	case 1:
		return 280 + r.Intn(50) // straddles the default SBThreshold (300)
	default:
		return 320 + r.Intn(200)
	}
}

// fracs draws an instruction-mix triple whose sum stays below max.
func fracs(r *rand.Rand, max float64) (fp, mem, br float64) {
	fp, mem, br = r.Float64(), r.Float64(), r.Float64()
	scale := max * r.Float64() / (fp + mem + br)
	return fp * scale, mem * scale, br * scale
}

// pow2 draws a power of two in [1<<lo, 1<<hi].
func pow2(r *rand.Rand, lo, hi int) int {
	return 1 << (lo + r.Intn(hi-lo+1))
}

// EstDynInsts estimates the dynamic guest instruction count of the
// generated program — coarse (body emission is stochastic) but good
// enough to keep fuzz cases within a time budget.
func (s *Spec) EstDynInsts() int {
	cold := s.ColdBlocks * (s.ColdLen + 1)
	kern := s.HotKernels * s.KernelIter * (s.KernelLen + 4)
	if s.UseCalls {
		kern += s.HotKernels * 2
	}
	disp := 0
	if s.Fanout > 0 {
		disp = s.DispatchIters * 16
		if s.CaseCalls {
			disp += s.DispatchIters * 8
		}
	}
	warmRuns := s.WarmIters
	if s.OuterIters < warmRuns {
		warmRuns = s.OuterIters
	}
	warm := warmRuns * (s.WarmBlocks*(s.WarmLen+1) + 6)
	return 8 + cold + s.OuterIters*(kern+disp+8) + warm
}

// EstStaticInsts estimates the static guest instruction count of the
// generated program — the guard fuzz harnesses apply before Build so a
// mutated corpus entry cannot demand a gigabyte of generated code.
func (s *Spec) EstStaticInsts() int {
	cold := s.ColdBlocks * (s.ColdLen + 2)
	warm := s.WarmBlocks*(s.WarmLen+2) + 8
	kern := s.HotKernels * (s.KernelLen + 6)
	disp := s.Fanout*14 + 12
	return 16 + cold + warm + kern + disp
}

// Clamp returns a copy whose estimated dynamic size is at most maxDyn,
// shrinking the repetition knobs (outer iterations first, then kernel
// and dispatcher counts) while preserving the spec's character. Specs
// already under budget are returned unchanged.
func (s Spec) Clamp(maxDyn int) Spec {
	// 256 halvings are enough for any int-ranged knob combination a
	// mutated corpus entry can carry.
	for i := 0; i < 256 && s.EstDynInsts() > maxDyn; i++ {
		switch {
		case s.OuterIters > 1:
			s.OuterIters = (s.OuterIters + 1) / 2
		case s.KernelIter > 1:
			s.KernelIter = (s.KernelIter + 1) / 2
		case s.DispatchIters > 1:
			s.DispatchIters = (s.DispatchIters + 1) / 2
		case s.WarmIters > 1:
			s.WarmIters = (s.WarmIters + 1) / 2
		case s.KernelLen > 1:
			s.KernelLen = (s.KernelLen + 1) / 2
		default:
			return s
		}
	}
	return s
}

// Shrink returns simplification candidates for the minimizer, most
// aggressive first: whole regions dropped, then counts halved, then
// flags and fractions cleared. Every candidate passes Validate and
// differs from the receiver; a receiver that cannot shrink returns nil.
func (s Spec) Shrink() []Spec {
	var out []Spec
	add := func(c Spec) {
		if c != s && c.Validate() == nil {
			out = append(out, c)
		}
	}
	mut := func(f func(*Spec)) {
		c := s
		f(&c)
		add(c)
	}

	// Drop whole regions.
	mut(func(c *Spec) { c.Fanout, c.DispatchIters, c.CaseCalls = 0, 0, false })
	mut(func(c *Spec) { c.HotKernels, c.KernelLen, c.UseCalls = 0, 0, false })
	mut(func(c *Spec) { c.WarmBlocks, c.WarmLen, c.WarmIters = 0, 0, 0 })
	mut(func(c *Spec) { c.ColdBlocks, c.ColdLen = 0, 0 })

	// Halve counts.
	half := func(v int) int { return v / 2 }
	mut(func(c *Spec) { c.HotKernels = half(c.HotKernels) })
	mut(func(c *Spec) {
		c.Fanout = half(c.Fanout)
		if c.Fanout == 0 {
			c.DispatchIters, c.CaseCalls = 0, false
		}
	})
	mut(func(c *Spec) { c.ColdBlocks = half(c.ColdBlocks) })
	mut(func(c *Spec) { c.WarmBlocks = half(c.WarmBlocks) })
	mut(func(c *Spec) {
		c.OuterIters = half(c.OuterIters)
		if c.OuterIters == 0 {
			c.OuterIters = 1
		}
	})
	mut(func(c *Spec) {
		c.KernelIter = half(c.KernelIter)
		if c.HotKernels > 0 && c.KernelIter == 0 {
			c.KernelIter = 1
		}
	})
	mut(func(c *Spec) { c.DispatchIters = half(c.DispatchIters) })
	mut(func(c *Spec) { c.KernelLen = half(c.KernelLen) })
	mut(func(c *Spec) { c.ColdLen = half(c.ColdLen) })
	mut(func(c *Spec) { c.WarmLen = half(c.WarmLen) })
	mut(func(c *Spec) { c.WarmIters = half(c.WarmIters) })

	// Clear flags and mix fractions; simplify memory shape.
	mut(func(c *Spec) { c.UseCalls = false })
	mut(func(c *Spec) { c.CaseCalls = false })
	mut(func(c *Spec) { c.Irregular = false })
	mut(func(c *Spec) { c.FPFrac = 0 })
	mut(func(c *Spec) { c.MemFrac = 0 })
	mut(func(c *Spec) { c.BranchFrac = 0 })
	mut(func(c *Spec) {
		if c.Footprint > 1<<10 {
			c.Footprint = c.Footprint >> 1
		}
	})
	mut(func(c *Spec) { c.Stride = 4 })
	return out
}

// EncodeSpec renders a spec as canonical JSON — the interchange form
// shared by the go-fuzz corpus, the fuzzrun driver and regression
// reports. DecodeSpec inverts it.
func EncodeSpec(s Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain value type; Marshal cannot fail on it.
		panic(fmt.Sprintf("workload: encode spec: %v", err))
	}
	return b
}

// DecodeSpec parses one JSON spec as written by EncodeSpec through
// strictjson.Decode, validating it: a corpus entry is one case.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	if err := strictjson.Decode(bytes.NewReader(data), &s); err != nil {
		return Spec{}, err
	}
	if err := checkSpec(0, s); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// fuzzSource resolves "fuzz:<seed>[/<profile>]" references to
// generated specs.
type fuzzSource struct{}

func (fuzzSource) Scheme() string { return "fuzz" }

func (fuzzSource) Open(name string) (Program, error) {
	seedStr, profile := name, fuzzDefaultProfile
	if i := strings.IndexByte(name, '/'); i >= 0 {
		seedStr, profile = name[:i], name[i+1:]
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("workload: fuzz source: reference %q: want fuzz:<seed>[/<profile>] with an integer seed", name)
	}
	spec, err := GenSpec(seed, profile)
	if err != nil {
		return nil, err
	}
	return SpecProgram{Spec: spec, Source: "fuzz"}, nil
}

// List shows the reference form with the known profiles rather than
// enumerating an unbounded seed space.
func (fuzzSource) List() []string {
	out := make([]string, 0, len(FuzzProfiles()))
	for _, p := range FuzzProfiles() {
		out = append(out, "fuzz:<seed>/"+p)
	}
	return out
}
