// Package experiments regenerates every figure of the paper's
// evaluation (Figures 5–11) from the simulation infrastructure. Table I
// is the timing configuration itself (timing.DefaultConfig) and is
// printed by cmd/darco -print-config.
//
// A paper figure is a value in the figures table (figures.go): the
// timing modes it needs, its row set and its tables of columns, each
// column one expression over a benchmark's per-mode results.
// Runner.Figure runs the session workloads against a "mode" axis as one
// internal/sweep grid on the runner's shared darco.Session (parallel
// across Options.Jobs workers) and renders the rows in catalog order.
// The engine is deterministic and runs are independent, so the tables
// are identical for any worker count.
//
// The parameterized sweeps (FigCC, FigPhase, FigSample) declare their
// own workloads × axes grids. Every job is built by the one cell→Job
// mapper (sweep.JobFor), so identical runs share one memo key across
// figures, preloads, and persistent stores.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// Options configures a figure-regeneration session.
type Options struct {
	// Scale multiplies the dynamic size of every workload (1.0 =
	// DESIGN.md default budgets). Every selected program must be
	// scalable when Scale != 1 (trace replays are fixed images).
	Scale float64
	// Benchmarks restricts the set (nil = the catalog of Config.ISA).
	// Entries are workload references resolved through the Source
	// registry ("<source>:<name>"); bare names select the synthetic
	// catalog, so plain benchmark names keep working.
	Benchmarks []string
	// Config is the base DARCO configuration.
	Config darco.Config
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Jobs is the session worker-pool size (0 = GOMAXPROCS). The
	// regenerated tables are identical for any value.
	Jobs int
	// Context cancels in-flight simulations (nil = Background).
	Context context.Context
	// Preload seeds the session with previously computed full results
	// (e.g. loaded from cmd/darco-suite -json output); matching
	// (benchmark, mode) jobs are served without simulating.
	Preload []darco.Record
	// SessionOptions are appended to the runner's session construction
	// — the hook commands use to install a persistent result store
	// (darco.WithStore) or a remote executor (darco.WithRemote with a
	// serve.Client), so figure regeneration can reuse stored results or
	// run on a darco-serve instance.
	SessionOptions []darco.SessionOption
}

// DefaultOptions returns the standard full-catalog session.
func DefaultOptions() Options {
	return Options{Scale: 1.0, Config: darco.DefaultConfig()}
}

// Runner regenerates figures through a shared darco.Session, so runs
// needed by several figures simulate exactly once.
type Runner struct {
	opts      Options
	progs     []workload.Program
	workloads []string          // Source-registry references of progs, in catalog order
	refs      map[string]string // program name -> Source-registry reference
	sess      *darco.Session
}

// NewRunner builds a runner over the selected workload programs.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	// The default selection is the catalog of the pinned guest ISA.
	selected := opts.Benchmarks
	if selected == nil {
		for _, s := range workload.CatalogFor(opts.Config.ISA) {
			selected = append(selected, workload.RefForISA(workload.DefaultSource+":"+s.Name, opts.Config.ISA))
		}
	}
	var progs []workload.Program
	refs := map[string]string{}
	for _, ref := range selected {
		p, err := workload.Open(ref)
		if err != nil {
			return nil, err
		}
		if p, err = workload.ScaleProgram(p, opts.Scale); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		// Every figure row set is keyed by program name, so a selection
		// where two programs share a name — a catalog benchmark plus a
		// trace recorded from it, say — would silently show one program's
		// results on both rows. Reject it.
		if _, dup := refs[p.Name()]; dup {
			return nil, fmt.Errorf("experiments: two selected workloads are named %q; figures key rows by name, so one of them must be renamed or dropped", p.Name())
		}
		progs = append(progs, p)
		refs[p.Name()] = ref
	}
	sessOpts := append([]darco.SessionOption{darco.WithWorkers(opts.Jobs)}, opts.SessionOptions...)
	if opts.Log != nil {
		sessOpts = append(sessOpts, darco.WithEvents(func(ev darco.Event) {
			if ev.Kind == darco.EventStarted {
				fmt.Fprintf(opts.Log, "run %-22s %s\n", ev.Job, ev.Mode)
			}
		}))
	}
	sess := darco.NewSession(sessOpts...)
	for _, rec := range opts.Preload {
		if rec.Result == nil {
			continue
		}
		if rec.Scale != 0 && rec.Scale != opts.Scale {
			return nil, fmt.Errorf("experiments: preload record %q was produced at -scale %g, session runs at -scale %g",
				rec.Benchmark, rec.Scale, opts.Scale)
		}
		m, err := timing.ParseMode(rec.Mode)
		if err != nil {
			return nil, fmt.Errorf("experiments: preload record %q: %w", rec.Benchmark, err)
		}
		sess.Preload(rec.Benchmark, m, rec.Result)
	}
	return &Runner{opts: opts, progs: progs, workloads: selected, refs: refs, sess: sess}, nil
}

// Programs returns the workload set of this runner.
func (r *Runner) Programs() []workload.Program {
	return append([]workload.Program(nil), r.progs...)
}

func (r *Runner) ctx() context.Context {
	if r.opts.Context != nil {
		return r.opts.Context
	}
	return context.Background()
}

// runGrid executes a figure's grid spec on the runner's shared session
// under the runner's base configuration, so every figure's cells
// memoize into one another.
func (r *Runner) runGrid(g *sweep.Grid) (*sweep.ResultSet, error) {
	base := r.opts.Config
	return sweep.RunOn(r.ctx(), r.sess, g, sweep.Options{Config: &base})
}

// DefaultCCCapacities is the capacity sweep of FigCC, in instruction
// slots. 0 is the unbounded baseline; the bounded points shrink
// geometrically into the range where the catalog benchmarks' code
// footprints (roughly 600–6500 instruction slots at scale 1) no
// longer fit, so every policy is exercised under real pressure.
var DefaultCCCapacities = []int{0, 4096, 2048, 1024, 512, 256}

// ccGrid builds the cache-pressure sweep as a grid spec: a policy
// axis (the unbounded baseline plus every registered eviction policy)
// crossed with a cc-size axis ("inf" plus the bounded capacities in
// descending order), with the meaningless combinations — unbounded ×
// bounded size, real policy × inf — skipped, and the baseline cell
// declared for derived metrics. Bounded cells opt out of preloading
// automatically: their configuration deviates from the runner base.
func (r *Runner) ccGrid(caps []int, policies []string) *sweep.Grid {
	zero := 0
	polVals := []sweep.Value{{Name: "unbounded"}}
	for _, pol := range policies {
		polVals = append(polVals, sweep.Value{Name: pol, Knobs: darco.Knobs{CCPolicy: pol}})
	}
	sizeVals := []sweep.Value{{Name: "inf", Knobs: darco.Knobs{CCSize: &zero}}}
	var capNames []string
	for _, c := range caps {
		sizeVals = append(sizeVals, sweep.Value{Name: fmt.Sprint(c), Knobs: darco.Knobs{CCSize: &c}})
		capNames = append(capNames, fmt.Sprint(c))
	}
	g := &sweep.Grid{
		Name:      "fig-cc",
		Workloads: r.workloads,
		Scale:     r.opts.Scale,
		Base:      &darco.Knobs{Mode: timing.ModeShared.String()},
		Axes: []sweep.Axis{
			{Name: "policy", Values: polVals},
			{Name: "cc-size", Values: sizeVals},
		},
		Baseline: map[string]string{"policy": "unbounded", "cc-size": "inf"},
	}
	if len(capNames) > 0 {
		g.Skip = append(g.Skip, sweep.Constraint{"policy": {"unbounded"}, "cc-size": capNames})
	}
	if len(policies) > 0 {
		g.Skip = append(g.Skip, sweep.Constraint{"policy": policies, "cc-size": {"inf"}})
	}
	return g
}

// FigCC runs the cache-pressure characterization enabled by the
// bounded code cache: every benchmark is swept over the given
// capacities (nil = DefaultCCCapacities) under every registered
// eviction policy, and the table reports cycles, the slowdown against
// the unbounded baseline, and the eviction/retranslation activity at
// each point. Rows are grouped per benchmark — the baseline first,
// then each policy with capacities in descending (monotone) order —
// so the capacity axis of the figure reads directly down the table.
func (r *Runner) FigCC(capacities []int) (*stats.Table, error) {
	if capacities == nil {
		capacities = DefaultCCCapacities
	}
	// The unbounded baseline (capacity 0) always runs — the slowdown
	// column needs its reference point; bounded capacities are swept in
	// descending order, deduplicated (they name axis values).
	var caps []int
	for _, c := range capacities {
		if c > 0 {
			caps = append(caps, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(caps)))
	caps = slices.Compact(caps)
	policies := tol.RegisteredEvictionPolicies()

	rs, err := r.runGrid(r.ccGrid(caps, policies))
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Figure CC: code cache pressure sweep (cycles and retranslation rate vs. capacity)",
		append([]string{"benchmark", "policy", "cc-size"}, pressureHeaders...)...)
	// The grid enumerates cells in exactly the table's row order.
	for i := range rs.Rows {
		row := &rs.Rows[i]
		base := rs.Lookup(row.Name, "unbounded", "inf").Result
		t.AddRow(append([]string{row.Name, row.Coords[0].Value, row.Coords[1].Value}, pressureRow(base, row.Result)...)...)
	}
	return t, nil
}

// pressureHeaders names the columns pressureRow fills.
var pressureHeaders = []string{"cycles", "slowdown", "evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%"}

// pressureRow formats one run of a cache-pressure sweep (FigCC,
// FigPhase): its cycles, the slowdown against the workload's unbounded
// baseline run, and its eviction/retranslation activity.
func pressureRow(base, res *darco.Result) []string {
	slow := 1.0
	if base.Timing.Cycles > 0 {
		slow = float64(res.Timing.Cycles) / float64(base.Timing.Cycles)
	}
	dyn := float64(res.TOL.DynTotal())
	rate := 0.0
	if dyn > 0 {
		rate = 1000 * float64(res.TOL.Retranslations) / dyn
	}
	// Unbounded runs report no occupancy peak (the stat is a pressure
	// counter); their final occupancy is the peak.
	peak := res.TOL.CacheOccupancyPeak
	if peak == 0 {
		peak = res.CodeCacheInsts
	}
	return []string{
		fmt.Sprint(res.Timing.Cycles),
		fmt.Sprintf("%.3f", slow),
		fmt.Sprint(res.TOL.Evictions),
		fmt.Sprint(res.TOL.FlushCount),
		fmt.Sprint(res.TOL.Retranslations),
		fmt.Sprintf("%.2f", rate),
		fmt.Sprint(peak),
		fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()),
	}
}
