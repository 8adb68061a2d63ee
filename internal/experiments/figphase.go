package experiments

import (
	"fmt"
	"strings"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// FigPhase characterizes phase behaviour, the workload axis the
// phased: source opens: as a program moves through distinct phases,
// each with its own hot working set, a bounded code cache must evict
// the previous phase's translations and retranslate on any return —
// activity a single-phase benchmark can never trigger at steady state.
// The figure sweeps composites of 1..maxPhases members (cycled from
// the pool) under every registered eviction policy at one bounded
// capacity, against the unbounded baseline.

// DefaultPhasePool lists the catalog members FigPhase cycles through:
// benchmarks with deliberately diverse static footprints and
// repetition characters, so successive phases displace each other's
// hot code.
var DefaultPhasePool = []string{
	"401.bzip2",
	"462.libquantum",
	"429.mcf",
	"006.jpg2000dec",
	"000.cjpeg",
	"470.lbm",
}

// FigPhase defaults.
const (
	// DefaultPhaseCount is the largest composite of the sweep.
	DefaultPhaseCount = 4
	// DefaultPhaseCapacityInsts bounds the code cache during the
	// sweep: below a typical two-phase translated footprint at scale
	// 1, so phase changes evict.
	DefaultPhaseCapacityInsts = 2048
)

// phasePool returns the member-name cycle: the session's synthetic
// benchmarks when the runner was restricted with Options.Benchmarks,
// otherwise DefaultPhasePool.
func (r *Runner) phasePool() []string {
	if r.opts.Benchmarks == nil {
		return DefaultPhasePool
	}
	var pool []string
	for _, p := range r.progs {
		if p.Meta().Source == workload.DefaultSource {
			pool = append(pool, p.Name())
		}
	}
	if len(pool) == 0 {
		return DefaultPhasePool
	}
	return pool
}

// phaseGrid builds the phase sweep as a grid spec: the 1..maxPhases
// composites as phased: workload references (the canonical "a+b"
// member join is exactly the reference that re-opens each composite,
// locally or on a remote session) against a single policy axis — the
// unbounded baseline plus every registered eviction policy at the
// bounded capacity. Phased programs opt out of preloading by
// construction (suite records never describe composites).
func phaseGrid(workloads []string, policies []string, capacityInsts int, scale float64) *sweep.Grid {
	zero := 0
	vals := []sweep.Value{{Name: "unbounded", Knobs: darco.Knobs{CCSize: &zero}}}
	for _, pol := range policies {
		vals = append(vals, sweep.Value{Name: pol,
			Knobs: darco.Knobs{CCSize: &capacityInsts, CCPolicy: pol}})
	}
	return &sweep.Grid{
		Name:      "fig-phase",
		Workloads: workloads,
		Scale:     scale,
		Base:      &darco.Knobs{Mode: timing.ModeShared.String()},
		Axes:      []sweep.Axis{{Name: "policy", Values: vals}},
		Baseline:  map[string]string{"policy": "unbounded"},
	}
}

// FigPhase runs the phase-behaviour characterization: composites of
// 1..maxPhases members under the unbounded baseline and under every
// registered eviction policy at capacityInsts. Zero arguments select
// DefaultPhaseCount and DefaultPhaseCapacityInsts. Rows are grouped
// per phase count — baseline first, then the policies in registration
// order — so the phase axis reads directly down the table.
func (r *Runner) FigPhase(maxPhases, capacityInsts int) (*stats.Table, error) {
	if maxPhases <= 0 {
		maxPhases = DefaultPhaseCount
	}
	if capacityInsts <= 0 {
		capacityInsts = DefaultPhaseCapacityInsts
	}
	if capacityInsts < tol.MinCacheCapacityInsts {
		return nil, fmt.Errorf("experiments: phase capacity %d below minimum %d",
			capacityInsts, tol.MinCacheCapacityInsts)
	}
	pool := r.phasePool()

	// The 1..maxPhases composites, cycling the pool. The grid engine
	// re-opens each reference and scales the members; the runner's
	// session programs are not reused because a composite is one
	// program, not a batch of its members.
	workloads := make([]string, 0, maxPhases)
	for n := 1; n <= maxPhases; n++ {
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = pool[i%len(pool)]
		}
		workloads = append(workloads, "phased:"+strings.Join(names, "+"))
	}
	policies := tol.RegisteredEvictionPolicies()

	rs, err := r.runGrid(phaseGrid(workloads, policies, capacityInsts, r.opts.Scale))
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Figure PHASE: eviction and retranslation vs. phase count (cc-size %d)", capacityInsts),
		append([]string{"phases", "workload", "policy"}, pressureHeaders...)...)
	for n, ref := range workloads {
		base := rs.Lookup(ref, "unbounded")
		for _, pol := range append([]string{"unbounded"}, policies...) {
			t.AddRow(append([]string{fmt.Sprint(n + 1), base.Name, pol}, pressureRow(base.Result, rs.Lookup(ref, pol).Result)...)...)
		}
	}
	return t, nil
}
