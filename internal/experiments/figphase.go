package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
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

// defaultPhasePool lists the catalog members FigPhase cycles through:
// benchmarks with deliberately diverse static footprints and
// repetition characters, so successive phases displace each other's
// hot code.
var defaultPhasePool = []string{
	"401.bzip2",
	"462.libquantum",
	"429.mcf",
	"006.jpg2000dec",
	"000.cjpeg",
	"470.lbm",
}

// FigPhase defaults.
const (
	// defaultPhaseCount is the largest composite of the sweep.
	defaultPhaseCount = 4
	// defaultPhaseCapacityInsts bounds the code cache during the
	// sweep: below a typical two-phase translated footprint at scale
	// 1, so phase changes evict.
	defaultPhaseCapacityInsts = 2048
)

// phasePool returns the member-name cycle: the session's synthetic
// benchmarks when the runner was restricted with Options.Benchmarks,
// otherwise defaultPhasePool.
func (r *Runner) phasePool() []string {
	if r.opts.Benchmarks == nil {
		return defaultPhasePool
	}
	var pool []string
	for _, p := range r.progs {
		if p.Meta().Source == workload.DefaultSource {
			pool = append(pool, p.Name())
		}
	}
	if len(pool) == 0 {
		return defaultPhasePool
	}
	return pool
}

// FigPhase runs the phase-behaviour characterization: composites of
// 1..maxPhases members under the unbounded baseline and under every
// registered eviction policy at capacityInsts. Zero arguments select
// defaultPhaseCount and defaultPhaseCapacityInsts. Rows are grouped
// per phase count — baseline first, then the policies in registration
// order — so the phase axis reads directly down the table.
func (r *Runner) FigPhase(maxPhases, capacityInsts int) (*stats.Table, error) {
	if maxPhases <= 0 {
		maxPhases = defaultPhaseCount
	}
	if capacityInsts <= 0 {
		capacityInsts = defaultPhaseCapacityInsts
	}
	if capacityInsts < tol.MinCacheCapacityInsts {
		return nil, fmt.Errorf("experiments: phase capacity %d below minimum %d",
			capacityInsts, tol.MinCacheCapacityInsts)
	}
	pool := r.phasePool()

	// The 1..maxPhases composites, cycling the pool, swept by FigCC's
	// grid at the one capacity. The canonical "a+b" member join is the
	// reference that re-opens each composite, locally or on a remote
	// session; the grid engine scales the members. The runner's session
	// programs are not reused because a composite is one program, not a
	// batch of its members.
	workloads := make([]string, 0, maxPhases)
	for n := 1; n <= maxPhases; n++ {
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = pool[i%len(pool)]
		}
		workloads = append(workloads, "phased:"+strings.Join(names, "+"))
	}
	policies := tol.RegisteredEvictionPolicies()

	rs, err := r.runGrid(r.ccGrid(workloads, []int{capacityInsts}, policies))
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
