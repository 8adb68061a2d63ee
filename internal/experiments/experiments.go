// Package experiments regenerates every figure of the paper's
// evaluation (Figures 5–11) from the simulation infrastructure: each
// FigN function produces the table of series the corresponding figure
// plots. Table I is the timing configuration itself
// (timing.DefaultConfig) and is printed by cmd/darco -print-config.
//
// All simulation goes through a darco.Session: each figure first warms
// the session by submitting every (benchmark, mode) pair it needs as
// one concurrent batch (parallel across Options.Jobs workers), then
// assembles its table sequentially in catalog order from the memoized
// results. The engine is deterministic and runs are independent, so
// the regenerated tables are identical for any worker count.
//
// The sweeping figures (Fig5, FigCC, FigPhase, FigSample) are thin
// specs over the internal/sweep characterization-grid engine: each
// declares its workloads × axes as a sweep.Grid, executes it through
// the shared session, and assembles its bespoke table from the grid's
// long-form result set. Every job — accessor or grid cell — is built
// by the one cell→Job mapper (sweep.JobFor), so identical runs share
// one memo key across figures, preloads, and persistent stores.
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
	// Benchmarks restricts the set (nil = full 48-benchmark catalog).
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
// needed by several figures (or both legs of the interaction pair)
// simulate exactly once.
type Runner struct {
	opts  Options
	progs []workload.Program
	refs  map[string]string // program name -> Source-registry reference
	sess  *darco.Session
}

// NewRunner builds a runner over the selected workload programs.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	var progs []workload.Program
	refs := map[string]string{}
	if opts.Benchmarks == nil {
		for _, s := range workload.Catalog() {
			progs = append(progs, workload.SpecProgram{Spec: s})
			refs[s.Name] = workload.DefaultSource + ":" + s.Name
		}
	} else {
		for _, ref := range opts.Benchmarks {
			p, err := workload.Open(ref)
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
			refs[p.Name()] = ref
		}
	}
	for i := range progs {
		p, err := workload.ScaleProgram(progs[i], opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		progs[i] = p
	}
	// Every per-benchmark accessor (and every figure row set) is keyed
	// by program name, so a selection where two programs share a name —
	// a catalog benchmark plus a trace recorded from it, say — would
	// silently show one program's results on both rows. Reject it.
	byName := map[string]bool{}
	for _, p := range progs {
		if byName[p.Name()] {
			return nil, fmt.Errorf("experiments: two selected workloads are named %q; figures key rows by name, so one of them must be renamed or dropped", p.Name())
		}
		byName[p.Name()] = true
	}
	sessOpts := []darco.SessionOption{darco.WithWorkers(opts.Jobs)}
	sessOpts = append(sessOpts, opts.SessionOptions...)
	if opts.Log != nil {
		log := opts.Log
		sessOpts = append(sessOpts, darco.WithEvents(func(ev darco.Event) {
			if ev.Kind == darco.EventStarted {
				fmt.Fprintf(log, "run %-22s %s\n", ev.Job, ev.Mode)
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
	return &Runner{opts: opts, progs: progs, refs: refs, sess: sess}, nil
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

func (r *Runner) program(name string) (workload.Program, error) {
	for _, p := range r.progs {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("experiments: benchmark %q not in session", name)
}

// job builds the session job for one program × mode through the grid
// engine's cell→Job mapper, so the per-benchmark accessors and the
// grid figures resolve identical configurations (and therefore share
// one memo key per run). The originating workload reference is kept on
// the job, so a remote session (Options.SessionOptions with
// darco.WithRemote) can re-open the same program server-side.
func (r *Runner) job(p workload.Program, mode timing.Mode) (darco.Job, error) {
	return sweep.JobFor(p, r.refs[p.Name()], r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: mode.String()})
}

// run executes (or recalls) one benchmark under a mode.
func (r *Runner) run(name string, mode timing.Mode) (*darco.Result, error) {
	p, err := r.program(name)
	if err != nil {
		return nil, err
	}
	j, err := r.job(p, mode)
	if err != nil {
		return nil, err
	}
	return r.sess.Run(r.ctx(), j)
}

// warm submits every session benchmark under each mode as one
// concurrent batch and returns the first error in catalog order.
// Subsequent per-benchmark accessors are cache hits.
func (r *Runner) warm(modes ...timing.Mode) error {
	var jobs []darco.Job
	for _, p := range r.progs {
		for _, m := range modes {
			j, err := r.job(p, m)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
	}
	for _, br := range r.sess.RunBatch(r.ctx(), jobs) {
		if br.Err != nil {
			return br.Err
		}
	}
	return nil
}

// workloadRefs returns the Source-registry references of the session
// programs, in catalog order — the workload list of a figure grid.
func (r *Runner) workloadRefs() []string {
	refs := make([]string, len(r.progs))
	for i, p := range r.progs {
		refs[i] = r.refs[p.Name()]
	}
	return refs
}

// runGrid executes a figure's grid spec on the runner's shared session
// under the runner's base configuration, so grid cells and the
// per-benchmark accessors memoize into one another.
func (r *Runner) runGrid(g *sweep.Grid) (*sweep.ResultSet, error) {
	base := r.opts.Config
	return sweep.RunOn(r.ctx(), r.sess, g, sweep.Options{Config: &base})
}

// Shared returns (running if needed) the shared-mode result.
func (r *Runner) Shared(name string) (*darco.Result, error) {
	return r.run(name, timing.ModeShared)
}

// TOLOnly returns (running if needed) the TOL-in-isolation result used
// by Figure 8.
func (r *Runner) TOLOnly(name string) (*darco.Result, error) {
	return r.run(name, timing.ModeTOLOnly)
}

// Interaction returns (running if needed) the shared-vs-split pair used
// by Figures 10 and 11. Both legs go through the session cache, so the
// shared leg is reused by the Figure 5–7/9 accessors and vice versa.
func (r *Runner) Interaction(name string) (*darco.InteractionResult, error) {
	p, err := r.program(name)
	if err != nil {
		return nil, err
	}
	j, err := r.job(p, timing.ModeShared)
	if err != nil {
		return nil, err
	}
	return r.sess.RunInteraction(r.ctx(), j)
}

// suiteOrder lists the paper's suites in order; programs whose Meta
// carries another (or no) suite — traces, phased composites, file
// specs outside the four suites — appear as rows but join no suite
// average.
func suiteOrder() []string {
	var out []string
	for _, s := range workload.Suites() {
		out = append(out, s.String())
	}
	return out
}

// forEach runs fn over the session programs in catalog order.
func (r *Runner) forEach(fn func(p workload.Program) error) error {
	for _, p := range r.progs {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// Fig5 regenerates Figure 5: the static (a) and dynamic (b)
// distribution of guest code across IM, BBM and SBM. The underlying
// sweep is the degenerate grid — every workload once, shared mode, no
// axes; the bespoke IM/BBM/SBM percentage table is assembled from the
// grid's result set.
func (r *Runner) Fig5() (*stats.Table, *stats.Table, error) {
	rs, err := r.runGrid(&sweep.Grid{
		Name:      "fig5",
		Workloads: r.workloadRefs(),
		Scale:     r.opts.Scale,
		Base:      &darco.Knobs{Mode: timing.ModeShared.String()},
	})
	if err != nil {
		return nil, nil, err
	}
	ta := stats.NewTable("Figure 5a: static guest code distribution (%)",
		"benchmark", "suite", "IM", "BBM", "SBM")
	tb := stats.NewTable("Figure 5b: dynamic guest code distribution (%)",
		"benchmark", "suite", "IM", "BBM", "SBM")
	type acc struct {
		aIM, aBBM, aSBM, bIM, bBBM, bSBM float64
		n                                int
	}
	suiteAcc := map[string]*acc{}
	err = r.forEach(func(p workload.Program) error {
		row := rs.Lookup(p.Name())
		if row == nil || row.Result == nil {
			return fmt.Errorf("experiments: no grid result for %s", p.Name())
		}
		res := row.Result
		suite := p.Meta().Suite
		im, bbm, sbm := res.TOL.StaticCounts()
		st := float64(im + bbm + sbm)
		dyn := float64(res.TOL.DynTotal())
		aIM, aBBM, aSBM := pct(im, st), pct(bbm, st), pct(sbm, st)
		bIM := 100 * float64(res.TOL.DynIM) / dyn
		bBBM := 100 * float64(res.TOL.DynBBM) / dyn
		bSBM := 100 * float64(res.TOL.DynSBM) / dyn
		ta.AddRowf(1, p.Name(), suite, aIM, aBBM, aSBM)
		tb.AddRowf(1, p.Name(), suite, bIM, bBBM, bSBM)
		a := suiteAcc[suite]
		if a == nil {
			a = &acc{}
			suiteAcc[suite] = a
		}
		a.aIM += aIM
		a.aBBM += aBBM
		a.aSBM += aSBM
		a.bIM += bIM
		a.bBBM += bBBM
		a.bSBM += bSBM
		a.n++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, su := range suiteOrder() {
		if a := suiteAcc[su]; a != nil && a.n > 0 {
			n := float64(a.n)
			ta.AddRowf(1, "AVG "+su, su, a.aIM/n, a.aBBM/n, a.aSBM/n)
			tb.AddRowf(1, "AVG "+su, su, a.bIM/n, a.bBBM/n, a.bSBM/n)
		}
	}
	return ta, tb, nil
}

func pct(x int, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(x) / total
}

// Fig6 regenerates Figure 6: execution-time breakdown into TOL
// overhead and application, with the dynamic/static instruction ratio
// and the number of SBM invocations (the log-scale series).
func (r *Runner) Fig6() (*stats.Table, error) {
	if err := r.warm(timing.ModeShared); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 6: execution time breakdown (% of cycles) + log-scale series",
		"benchmark", "suite", "overhead", "application", "dyn/static", "SBM-invocations")
	type acc struct {
		ov float64
		n  int
	}
	suiteAcc := map[string]*acc{}
	err := r.forEach(func(p workload.Program) error {
		res, err := r.Shared(p.Name())
		if err != nil {
			return err
		}
		suite := p.Meta().Suite
		ov := res.Timing.TOLShare() * 100
		t.AddRowf(1, p.Name(), suite, ov, 100-ov,
			fmt.Sprintf("%.0f", res.DynamicStaticRatio()),
			fmt.Sprint(res.TOL.SBCreated))
		a := suiteAcc[suite]
		if a == nil {
			a = &acc{}
			suiteAcc[suite] = a
		}
		a.ov += ov
		a.n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, su := range suiteOrder() {
		if a := suiteAcc[su]; a != nil && a.n > 0 {
			t.AddRowf(1, "AVG "+su, su, a.ov/float64(a.n),
				100-a.ov/float64(a.n), "", "")
		}
	}
	return t, nil
}

// Fig7 regenerates Figure 7: the TOL execution time split into its
// components (as % of total execution time), plus the dynamic guest
// indirect-branch count (the log-scale series).
func (r *Runner) Fig7() (*stats.Table, error) {
	if err := r.warm(timing.ModeShared); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 7: TOL time by component (% of cycles) + indirect branches",
		"benchmark", "suite", "tol-other", "IM", "BBM", "SBM", "chaining", "code$-lookup", "indirect-branches")
	err := r.forEach(func(p workload.Program) error {
		res, err := r.Shared(p.Name())
		if err != nil {
			return err
		}
		cyc := float64(res.Timing.Cycles)
		comp := func(c timing.Component) float64 {
			return 100 * res.Timing.ComponentCycles(c) / cyc
		}
		t.AddRowf(2, p.Name(), p.Meta().Suite,
			comp(timing.CompTOLOther), comp(timing.CompIM), comp(timing.CompBBM),
			comp(timing.CompSBM), comp(timing.CompChaining), comp(timing.CompCodeCacheLookup),
			fmt.Sprint(res.TOL.IndirectDyn))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig7b regenerates the pass-level refinement of Figure 7 enabled by
// the pluggable pipeline: the SBM component time split per
// optimization pass, plus the non-pass remainder (trace construction,
// emission, bookkeeping) as "sbm-other", all as % of total cycles.
// Each pass's share is its fraction of the modeled SBM instruction
// stream applied to the SBM component cycles, so the columns sum to
// the aggregate SBM time of Figure 7. The final column is the total
// number of guest instructions the passes eliminated.
func (r *Runner) Fig7b() (*stats.Table, error) {
	if err := r.warm(timing.ModeShared); err != nil {
		return nil, err
	}
	// Derive the pass columns from the results themselves (union across
	// benchmarks, first-appearance order), so preloaded records from a
	// differently configured run (-from with other -O/-passes flags)
	// keep every pass share they actually carry. Fall back to the
	// session pipeline when no run created superblocks.
	var names []string
	seen := map[string]bool{}
	err := r.forEach(func(p workload.Program) error {
		res, err := r.Shared(p.Name())
		if err != nil {
			return err
		}
		for _, ps := range res.TOL.SBPasses {
			if !seen[ps.Pass] {
				seen[ps.Pass] = true
				names = append(names, ps.Pass)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if names == nil {
		if names, err = r.opts.Config.TOL.PipelineNames(); err != nil {
			return nil, err
		}
	}
	cols := []string{"benchmark", "suite"}
	for _, n := range names {
		cols = append(cols, n)
	}
	cols = append(cols, "sbm-other", "eliminated")
	t := stats.NewTable("Figure 7b: SBM time by optimization pass (% of cycles)", cols...)
	err = r.forEach(func(p workload.Program) error {
		res, err := r.Shared(p.Name())
		if err != nil {
			return err
		}
		cyc := float64(res.Timing.Cycles)
		sbmCyc := res.Timing.ComponentCycles(timing.CompSBM)
		total := float64(res.TOL.SBMInstTotal())
		share := func(insts uint64) float64 {
			if total == 0 || cyc == 0 {
				return 0
			}
			return 100 * sbmCyc * (float64(insts) / total) / cyc
		}
		row := []any{p.Name(), p.Meta().Suite}
		var eliminated uint64
		for _, n := range names {
			var insts uint64
			for _, ps := range res.TOL.SBPasses {
				if ps.Pass == n {
					insts, eliminated = ps.CostInsts, eliminated+ps.Eliminated
					break
				}
			}
			row = append(row, share(insts))
		}
		row = append(row, share(res.TOL.SBOtherInsts), fmt.Sprint(eliminated))
		t.AddRowf(3, row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
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
	for i := range caps {
		c := caps[i]
		sizeVals = append(sizeVals, sweep.Value{Name: fmt.Sprint(c), Knobs: darco.Knobs{CCSize: &c}})
		capNames = append(capNames, fmt.Sprint(c))
	}
	g := &sweep.Grid{
		Name:      "fig-cc",
		Workloads: r.workloadRefs(),
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
		"benchmark", "policy", "cc-size", "cycles", "slowdown",
		"evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%")
	for _, p := range r.progs {
		base := rs.Lookup(p.Name(), "unbounded", "inf").Result
		addRow := func(policy, size string, res *darco.Result) {
			slow := 1.0
			if base.Timing.Cycles > 0 {
				slow = float64(res.Timing.Cycles) / float64(base.Timing.Cycles)
			}
			dyn := float64(res.TOL.DynTotal())
			rate := 0.0
			if dyn > 0 {
				rate = 1000 * float64(res.TOL.Retranslations) / dyn
			}
			// Unbounded runs report no occupancy peak (the stat is a
			// pressure counter); their final occupancy is the peak.
			peak := res.TOL.CacheOccupancyPeak
			if peak == 0 {
				peak = res.CodeCacheInsts
			}
			t.AddRow(p.Name(), policy, size,
				fmt.Sprint(res.Timing.Cycles),
				fmt.Sprintf("%.3f", slow),
				fmt.Sprint(res.TOL.Evictions),
				fmt.Sprint(res.TOL.FlushCount),
				fmt.Sprint(res.TOL.Retranslations),
				fmt.Sprintf("%.2f", rate),
				fmt.Sprint(peak),
				fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()))
		}
		addRow("unbounded", "inf", base)
		for _, pol := range policies {
			for _, c := range caps {
				addRow(pol, fmt.Sprint(c), rs.Lookup(p.Name(), pol, fmt.Sprint(c)).Result)
			}
		}
	}
	return t, nil
}

// Fig8 regenerates Figure 8: TOL performance characteristics in
// isolation — IPC, data/instruction cache miss rates, and branch
// misprediction rate.
func (r *Runner) Fig8() (*stats.Table, error) {
	if err := r.warm(timing.ModeTOLOnly); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8: TOL performance characteristics (TOL executed in isolation)",
		"benchmark", "suite", "IPC", "D$-miss%", "I$-miss%", "BP-miss%")
	err := r.forEach(func(p workload.Program) error {
		res, err := r.TOLOnly(p.Name())
		if err != nil {
			return err
		}
		tr := res.Timing
		t.AddRowf(2, p.Name(), p.Meta().Suite, tr.IPC(),
			100*tr.L1D.OwnerMissRate(timing.OwnerTOL),
			100*tr.L1I.OwnerMissRate(timing.OwnerTOL),
			100*tr.Branch.OwnerMispredictRate(timing.OwnerTOL))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// fig9Rows returns the row set of Figures 9–11: the four outliers plus
// per-suite averages, restricted to benchmarks in the session.
func (r *Runner) fig9Rows() []string {
	var rows []string
	have := map[string]bool{}
	for _, p := range r.progs {
		have[p.Name()] = true
	}
	for _, o := range workload.Outliers() {
		if have[o] {
			rows = append(rows, o)
		}
	}
	return rows
}

// Fig9 regenerates Figure 9: cycles split into instruction cycles and
// the four bubble sources, each divided between TOL and the
// application, for the outliers and suite averages.
func (r *Runner) Fig9() (*stats.Table, error) {
	if err := r.warm(timing.ModeShared); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 9: cycle breakdown (% of cycles), TOL vs application",
		"case", "app-insts", "tol-insts", "app-sched", "tol-sched",
		"app-branch", "tol-branch", "app-i$", "tol-i$", "app-d$", "tol-d$")
	addRow := func(label string, rs []*darco.Result) {
		var v [10]float64
		for _, res := range rs {
			cyc := float64(res.Timing.Cycles)
			tr := res.Timing
			v[0] += 100 * tr.InstCycles[timing.OwnerApp] / cyc
			v[1] += 100 * tr.InstCycles[timing.OwnerTOL] / cyc
			v[2] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleSched] / cyc
			v[3] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleSched] / cyc
			v[4] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleBranch] / cyc
			v[5] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleBranch] / cyc
			v[6] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleIMiss] / cyc
			v[7] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleIMiss] / cyc
			v[8] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleDMiss] / cyc
			v[9] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleDMiss] / cyc
		}
		n := float64(len(rs))
		t.AddRowf(1, label, v[0]/n, v[1]/n, v[2]/n, v[3]/n, v[4]/n,
			v[5]/n, v[6]/n, v[7]/n, v[8]/n, v[9]/n)
	}
	for _, name := range r.fig9Rows() {
		res, err := r.Shared(name)
		if err != nil {
			return nil, err
		}
		addRow(name, []*darco.Result{res})
	}
	for _, su := range suiteOrder() {
		var rs []*darco.Result
		for _, p := range r.progs {
			if p.Meta().Suite != su {
				continue
			}
			res, err := r.Shared(p.Name())
			if err != nil {
				return nil, err
			}
			rs = append(rs, res)
		}
		if len(rs) > 0 {
			addRow("AVG "+su, rs)
		}
	}
	return t, nil
}

// Fig10 regenerates Figure 10: relative per-entity execution time with
// resource interaction versus without.
func (r *Runner) Fig10() (*stats.Table, error) {
	if err := r.warm(timing.ModeShared, timing.ModeSplit); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10: slowdown from TOL/application interaction (w/ vs w/o shared resources)",
		"case", "application", "TOL")
	addRow := func(label string, irs []*darco.InteractionResult) {
		var app, tol float64
		for _, ir := range irs {
			app += ir.AppSlowdown()
			tol += ir.TOLSlowdown()
		}
		n := float64(len(irs))
		t.AddRowf(3, label, app/n, tol/n)
	}
	for _, name := range r.fig9Rows() {
		ir, err := r.Interaction(name)
		if err != nil {
			return nil, err
		}
		addRow(name, []*darco.InteractionResult{ir})
	}
	for _, su := range suiteOrder() {
		var irs []*darco.InteractionResult
		for _, p := range r.progs {
			if p.Meta().Suite != su {
				continue
			}
			ir, err := r.Interaction(p.Name())
			if err != nil {
				return nil, err
			}
			irs = append(irs, ir)
		}
		if len(irs) > 0 {
			addRow("AVG "+su, irs)
		}
	}
	return t, nil
}

// Fig11 regenerates Figure 11: the potential per-resource improvement
// for TOL (a) and the application (b) if the interaction were
// eliminated.
func (r *Runner) Fig11() (*stats.Table, *stats.Table, error) {
	if err := r.warm(timing.ModeShared, timing.ModeSplit); err != nil {
		return nil, nil, err
	}
	mk := func(title string) *stats.Table {
		return stats.NewTable(title, "case", "d$-miss", "i$-miss", "sched", "branch")
	}
	ta := mk("Figure 11a: potential improvement of TOL (% of cycles)")
	tb := mk("Figure 11b: potential improvement of the application (% of cycles)")
	addRow := func(t *stats.Table, label string, o timing.Owner, irs []*darco.InteractionResult) {
		var d, i, s, b float64
		for _, ir := range irs {
			d += 100 * ir.Potential(o, timing.BubbleDMiss)
			i += 100 * ir.Potential(o, timing.BubbleIMiss)
			s += 100 * ir.Potential(o, timing.BubbleSched)
			b += 100 * ir.Potential(o, timing.BubbleBranch)
		}
		n := float64(len(irs))
		t.AddRowf(2, label, d/n, i/n, s/n, b/n)
	}
	rowSets := make(map[string][]*darco.InteractionResult)
	var order []string
	for _, name := range r.fig9Rows() {
		ir, err := r.Interaction(name)
		if err != nil {
			return nil, nil, err
		}
		rowSets[name] = []*darco.InteractionResult{ir}
		order = append(order, name)
	}
	for _, su := range suiteOrder() {
		var irs []*darco.InteractionResult
		for _, p := range r.progs {
			if p.Meta().Suite != su {
				continue
			}
			ir, err := r.Interaction(p.Name())
			if err != nil {
				return nil, nil, err
			}
			irs = append(irs, ir)
		}
		if len(irs) > 0 {
			label := "AVG " + su
			rowSets[label] = irs
			order = append(order, label)
		}
	}
	for _, label := range order {
		addRow(ta, label, timing.OwnerTOL, rowSets[label])
		addRow(tb, label, timing.OwnerApp, rowSets[label])
	}
	return ta, tb, nil
}
