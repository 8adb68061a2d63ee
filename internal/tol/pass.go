package tol

import (
	"fmt"
	"strings"

	"repro/internal/registry"
)

// The SBM optimizer is a pipeline of named passes. Each pass is a
// guest-level (trace IR) or host-level (emitted code) transformation
// with a uniform Run contract, so the cost model can bill SBM time per
// pass and experiments can ablate individual passes or whole presets
// without touching the engine.
//
// Passes register themselves in a package-level registry; pipelines
// are parsed from comma-separated spec strings ("constprop,dce,rle,
// sched") or selected through the O0–O3 presets. Pass implementations
// operate on the unexported trace plan, so the set of passes is closed
// to this package by design: the registry exists for *selection and
// ordering*, not for out-of-tree extension — exactly the configuration
// surface the per-activity characterization needs.

// PassStage tells the pipeline driver where a pass runs relative to
// host-code emission.
type PassStage uint8

// Pass stages.
const (
	// StageGuest passes transform the guest-level trace plan before
	// host code is emitted (constprop, dce, rle).
	StageGuest PassStage = iota
	// StageHost passes transform the emitted host code after sealing
	// (sched). Within a pipeline spec, guest-stage passes always run
	// before host-stage ones; the spec order is preserved within each
	// stage.
	StageHost
)

func (s PassStage) String() string {
	if s == StageGuest {
		return "guest"
	}
	return "host"
}

// PassReport quantifies one pass invocation over one superblock.
type PassReport struct {
	// Pass is the registered pass name.
	Pass string `json:"pass"`
	// Visits is the number of IR instruction visits the cost model
	// bills for the pass (each visit is rendered as a load-modify-store
	// walk over the IR buffer).
	Visits int `json:"visits"`
	// Eliminated counts guest instructions the pass removed or reduced:
	// dropped or folded to constants (constprop, dce), or memory
	// accesses absorbed into registers (rle).
	Eliminated int `json:"eliminated"`
}

// Pass is one named SBM optimization pass. Run transforms the trace
// plan in place (guest stage) or the plan's sealed host code (host
// stage) and reports the work done for the cost model.
type Pass interface {
	Name() string
	Stage() PassStage
	Run(p *tracePlan) PassReport
}

var passRegistry = registry.New[Pass]("tol: duplicate pass %q")

// RegisterPass adds a pass to the registry, making its name available
// to pipeline specs and the O-level presets. Names must be unique and
// free of pipeline-spec metacharacters. Because Pass.Run operates on
// the package's unexported trace plan, new passes are implemented
// inside this package (the registry exists for selection and
// ordering); RegisterPass is exported for API symmetry with
// RegisterEvictionPolicy and RegisteredPromotionPolicies and is
// normally called from an init function.
func RegisterPass(p Pass) {
	name := p.Name()
	if name == "" || name == PassesNone || strings.ContainsAny(name, ", \t") {
		panic(fmt.Sprintf("tol: invalid pass name %q", name))
	}
	passRegistry.Register(name, p)
}

func init() {
	RegisterPass(constPropPass{})
	RegisterPass(dcePass{})
	RegisterPass(rlePass{})
	RegisterPass(schedPass{})
}

// RegisteredPasses returns the names of all registered passes in
// registration order.
func RegisteredPasses() []string { return passRegistry.Names() }

// LookupPass returns the registered pass with the given name.
func LookupPass(name string) (Pass, bool) { return passRegistry.Lookup(name) }

// Pipeline spec constants.
const (
	// DefaultPasses is the O2 pipeline: the paper's full SBM optimizer
	// (copy/constant propagation and folding, dead code elimination,
	// redundant-load elimination with register allocation, and list
	// instruction scheduling).
	DefaultPasses = "constprop,dce,rle,sched"

	// PassesNone is the explicitly empty pipeline. It is only valid
	// with EnableSBM=false (Config.Validate rejects the combination):
	// to run without any SBM optimization, stop at BBM.
	PassesNone = "none"
)

// optLevels maps the O0–O3 presets to pipeline specs. O0 is the empty
// pipeline and therefore requires SBM to be disabled (ApplyOptLevel
// does both); O2 is today's default; O3 additionally re-runs
// propagation and DCE so second-order folding opportunities exposed by
// the first round are harvested.
var optLevels = map[string]string{
	"O0": PassesNone,
	"O1": "constprop,dce",
	"O2": DefaultPasses,
	"O3": "constprop,dce,constprop,dce,rle,sched",
}

// OptLevelPasses returns the pipeline spec of a preset ("O0".."O3").
func OptLevelPasses(level string) (string, bool) {
	s, ok := optLevels[level]
	return s, ok
}

// ApplyOptLevel configures c for preset optimization level 0..3.
// Level 0 disables SBM entirely (interpretation + BBM only); levels
// 1..3 enable SBM with increasingly aggressive pass pipelines.
func ApplyOptLevel(c *Config, level int) error {
	if level < 0 || level > 3 {
		return fmt.Errorf("tol: optimization level O%d out of range (0..3)", level)
	}
	c.OptLevel = fmt.Sprintf("O%d", level)
	c.Passes = ""
	c.EnableSBM = level > 0
	return nil
}

// ParsePipeline resolves a pipeline spec into the ordered pass list.
// The empty spec selects DefaultPasses; PassesNone selects the empty
// pipeline; otherwise the spec is a comma-separated list of registered
// pass names (repeats allowed — O3 runs propagation twice).
func ParsePipeline(spec string) ([]Pass, error) {
	if spec == "" {
		spec = DefaultPasses
	}
	if spec == PassesNone {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]Pass, 0, len(parts))
	for _, raw := range parts {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("tol: empty pass name in pipeline %q", spec)
		}
		p, ok := LookupPass(name)
		if !ok {
			return nil, fmt.Errorf("tol: unknown pass %q (registered: %s)",
				name, strings.Join(RegisteredPasses(), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

// pipelineSpec resolves the effective spec string: an explicit Passes
// wins, otherwise the OptLevel preset ("" = O2).
func (c *Config) pipelineSpec() (string, error) {
	if c.Passes != "" {
		return c.Passes, nil
	}
	level := c.OptLevel
	if level == "" {
		level = "O2"
	}
	s, ok := optLevels[level]
	if !ok {
		return "", fmt.Errorf("tol: unknown optimization level %q (have O0..O3)", level)
	}
	return s, nil
}

// Pipeline resolves the configured SBM optimization pipeline.
func (c *Config) Pipeline() ([]Pass, error) {
	spec, err := c.pipelineSpec()
	if err != nil {
		return nil, err
	}
	return ParsePipeline(spec)
}

// PipelineNames returns the distinct pass names of the resolved
// pipeline in first-occurrence order — the column set of per-pass
// reporting (repeated passes aggregate under one name).
func (c *Config) PipelineNames() ([]string, error) {
	pipeline, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, p := range pipeline {
		if !seen[p.Name()] {
			seen[p.Name()] = true
			names = append(names, p.Name())
		}
	}
	return names, nil
}

// ---- Pass adapters over the optimizer implementations ----

// constPropPass is copy/constant propagation with constant folding
// (including folded flag results and constant side exits).
type constPropPass struct{}

func (constPropPass) Name() string     { return "constprop" }
func (constPropPass) Stage() PassStage { return StageGuest }

func (constPropPass) Run(p *tracePlan) PassReport {
	visits, folded := constPropagate(p)
	return PassReport{Pass: "constprop", Visits: visits, Eliminated: folded}
}

// dcePass removes provably dead register writes and dead flag
// definitions.
type dcePass struct{}

func (dcePass) Name() string     { return "dce" }
func (dcePass) Stage() PassStage { return StageGuest }

func (dcePass) Run(p *tracePlan) PassReport {
	visits, dropped := deadCodeEliminate(p)
	return PassReport{Pass: "dce", Visits: visits, Eliminated: dropped}
}

// rlePass is redundant-load elimination with register allocation:
// repeated loads of one location are cached in the allocatable host
// registers (r46..r63). Its analysis rides the emitter's walk over the
// trace, so — matching the original fused implementation the cost
// model was tuned against — it bills no separate IR visits; Eliminated
// counts the loads served from registers instead of memory.
type rlePass struct{}

func (rlePass) Name() string     { return "rle" }
func (rlePass) Stage() PassStage { return StageGuest }

func (rlePass) Run(p *tracePlan) PassReport {
	eliminated := redundantLoadEliminate(p)
	return PassReport{Pass: "rle", Visits: 0, Eliminated: eliminated}
}

// schedPass list-schedules the straight-line regions of the sealed
// host code (sched.go); it runs at the host stage.
type schedPass struct{}

func (schedPass) Name() string     { return "sched" }
func (schedPass) Stage() PassStage { return StageHost }

func (schedPass) Run(p *tracePlan) PassReport {
	visits := scheduleCode(p.code)
	return PassReport{Pass: "sched", Visits: visits}
}
