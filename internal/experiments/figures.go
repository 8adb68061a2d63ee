package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// A figure is one of the paper's evaluation figures as data: the timing
// modes every benchmark runs under, the row set, and the tables drawn
// from those runs. Runner.Figure is the one place a figure is executed
// and rendered.
type figure struct {
	id    string
	modes []timing.Mode
	// Rows: one per session benchmark (labelled benchmark + suite),
	// followed by one AVG row per suite when avg is set; or, with
	// outliers, the paper's outliers (workload.Outliers) present in the
	// session plus the suite AVG rows, under a single "case" label.
	avg, outliers bool
	tables        []table
	// derive replaces tables for a figure whose columns depend on the
	// results (Figure 7b: one column per pass the runs report).
	derive func(base darco.Config, all []runs) ([]table, error)
}

type table struct {
	title string
	prec  int // decimals of the numeric columns
	cols  []column
}

// A column is a header plus one expression over a benchmark's runs.
// num is averaged over the row's members (a benchmark row is a
// one-member average); text is rendered on benchmark rows only and
// left blank on AVG rows.
type column struct {
	name string
	num  func(m *runs) float64
	text func(m *runs) string
}

// runs holds one benchmark's results by timing mode; only the modes
// the figure declares are set.
type runs [timing.NumModes]*darco.Result

// The column constructors name the run(s) an expression reads.
func shared(name string, f func(*darco.Result) float64) column {
	return column{name: name, num: func(m *runs) float64 { return f(m[timing.ModeShared]) }}
}

func sharedText(name string, f func(*darco.Result) string) column {
	return column{name: name, text: func(m *runs) string { return f(m[timing.ModeShared]) }}
}

func tolOnly(name string, f func(*timing.Result) float64) column {
	return column{name: name, num: func(m *runs) float64 { return f(m[timing.ModeTOLOnly].Timing) }}
}

// pair reads the shared-vs-split interaction pair of Figures 10 and 11.
func pair(name string, f func(*darco.InteractionResult) float64) column {
	return column{name: name, num: func(m *runs) float64 {
		return f(&darco.InteractionResult{Shared: m[timing.ModeShared], Split: m[timing.ModeSplit]})
	}}
}

// cycPct expresses a cycle count as a percentage of the run's cycles.
func cycPct(f func(*timing.Result) float64) func(*darco.Result) float64 {
	return func(res *darco.Result) float64 { return 100 * f(res.Timing) / float64(res.Timing.Cycles) }
}

func pct(x int, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(x) / total
}

var (
	sharedMode  = []timing.Mode{timing.ModeShared}
	interaction = []timing.Mode{timing.ModeShared, timing.ModeSplit}
)

// figures lists Figures 5–11 in paper order. The cc, phase and sample
// sweeps are not entries: a figure row is a benchmark under a set of
// modes, while their rows are grid cells (benchmark × policy × size,
// composite × policy, benchmark × full/sampled), and FigSample times
// fresh runs on a private session instead of sharing the runner's.
var figures = []figure{
	{id: "5", modes: sharedMode, avg: true, tables: []table{
		{"Figure 5a: static guest code distribution (%)", 1, []column{
			shared("IM", staticPct(0)), shared("BBM", staticPct(1)), shared("SBM", staticPct(2))}},
		{"Figure 5b: dynamic guest code distribution (%)", 1, []column{
			shared("IM", dynPct(0)), shared("BBM", dynPct(1)), shared("SBM", dynPct(2))}},
	}},
	{id: "6", modes: sharedMode, avg: true, tables: []table{
		{"Figure 6: execution time breakdown (% of cycles) + log-scale series", 1, []column{
			shared("overhead", func(res *darco.Result) float64 { return res.Timing.TOLShare() * 100 }),
			shared("application", func(res *darco.Result) float64 { return 100 - res.Timing.TOLShare()*100 }),
			sharedText("dyn/static", func(res *darco.Result) string { return fmt.Sprintf("%.0f", res.DynamicStaticRatio()) }),
			sharedText("SBM-invocations", func(res *darco.Result) string { return fmt.Sprint(res.TOL.SBCreated) }),
		}},
	}},
	{id: "7", modes: sharedMode, tables: []table{
		{"Figure 7: TOL time by component (% of cycles) + indirect branches", 2, []column{
			shared("tol-other", compPct(timing.CompTOLOther)), shared("IM", compPct(timing.CompIM)),
			shared("BBM", compPct(timing.CompBBM)), shared("SBM", compPct(timing.CompSBM)),
			shared("chaining", compPct(timing.CompChaining)), shared("code$-lookup", compPct(timing.CompCodeCacheLookup)),
			sharedText("indirect-branches", func(res *darco.Result) string { return fmt.Sprint(res.TOL.IndirectDyn) }),
		}},
	}},
	{id: "7b", modes: sharedMode, derive: fig7bTables},
	{id: "8", modes: []timing.Mode{timing.ModeTOLOnly}, tables: []table{
		{"Figure 8: TOL performance characteristics (TOL executed in isolation)", 2, []column{
			tolOnly("IPC", (*timing.Result).IPC),
			tolOnly("D$-miss%", func(tr *timing.Result) float64 { return 100 * tr.L1D.OwnerMissRate(timing.OwnerTOL) }),
			tolOnly("I$-miss%", func(tr *timing.Result) float64 { return 100 * tr.L1I.OwnerMissRate(timing.OwnerTOL) }),
			tolOnly("BP-miss%", func(tr *timing.Result) float64 { return 100 * tr.Branch.OwnerMispredictRate(timing.OwnerTOL) }),
		}},
	}},
	{id: "9", modes: sharedMode, outliers: true, tables: []table{
		{"Figure 9: cycle breakdown (% of cycles), TOL vs application", 1, []column{
			shared("app-insts", instPct(timing.OwnerApp)), shared("tol-insts", instPct(timing.OwnerTOL)),
			shared("app-sched", bubblePct(timing.OwnerApp, timing.BubbleSched)), shared("tol-sched", bubblePct(timing.OwnerTOL, timing.BubbleSched)),
			shared("app-branch", bubblePct(timing.OwnerApp, timing.BubbleBranch)), shared("tol-branch", bubblePct(timing.OwnerTOL, timing.BubbleBranch)),
			shared("app-i$", bubblePct(timing.OwnerApp, timing.BubbleIMiss)), shared("tol-i$", bubblePct(timing.OwnerTOL, timing.BubbleIMiss)),
			shared("app-d$", bubblePct(timing.OwnerApp, timing.BubbleDMiss)), shared("tol-d$", bubblePct(timing.OwnerTOL, timing.BubbleDMiss)),
		}},
	}},
	{id: "10", modes: interaction, outliers: true, tables: []table{
		{"Figure 10: slowdown from TOL/application interaction (w/ vs w/o shared resources)", 3, []column{
			pair("application", (*darco.InteractionResult).AppSlowdown),
			pair("TOL", (*darco.InteractionResult).TOLSlowdown),
		}},
	}},
	{id: "11", modes: interaction, outliers: true, tables: []table{
		{"Figure 11a: potential improvement of TOL (% of cycles)", 2, potentialColumns(timing.OwnerTOL)},
		{"Figure 11b: potential improvement of the application (% of cycles)", 2, potentialColumns(timing.OwnerApp)},
	}},
}

func staticPct(tier int) func(*darco.Result) float64 {
	return func(res *darco.Result) float64 {
		im, bbm, sbm := res.TOL.StaticCounts()
		return pct([]int{im, bbm, sbm}[tier], float64(im+bbm+sbm))
	}
}

func dynPct(tier int) func(*darco.Result) float64 {
	return func(res *darco.Result) float64 {
		s := &res.TOL
		return 100 * float64([]uint64{s.DynIM, s.DynBBM, s.DynSBM}[tier]) / float64(s.DynTotal())
	}
}

func compPct(c timing.Component) func(*darco.Result) float64 {
	return cycPct(func(tr *timing.Result) float64 { return tr.ComponentCycles(c) })
}

func instPct(o timing.Owner) func(*darco.Result) float64 {
	return cycPct(func(tr *timing.Result) float64 { return tr.InstCycles[o] })
}

func bubblePct(o timing.Owner, k timing.BubbleKind) func(*darco.Result) float64 {
	return cycPct(func(tr *timing.Result) float64 { return tr.Bubbles[o][k] })
}

func potentialColumns(o timing.Owner) []column {
	p := func(k timing.BubbleKind) func(*darco.InteractionResult) float64 {
		return func(ir *darco.InteractionResult) float64 { return 100 * ir.Potential(o, k) }
	}
	return []column{pair("d$-miss", p(timing.BubbleDMiss)), pair("i$-miss", p(timing.BubbleIMiss)),
		pair("sched", p(timing.BubbleSched)), pair("branch", p(timing.BubbleBranch))}
}

// fig7bTables builds the pass-level refinement of Figure 7: the SBM
// component time split per optimization pass, plus the non-pass
// remainder (trace construction, emission, bookkeeping) as "sbm-other",
// all as % of total cycles. A pass's share is its fraction of the
// modeled SBM instruction stream applied to the SBM component cycles,
// so the columns sum to Figure 7's SBM time; the last column totals the
// guest instructions the passes eliminated.
//
// The pass columns are the union of the passes the results report
// (first-appearance order), so preloaded records from a differently
// configured run (-from with other -O/-passes flags) keep every share
// they carry; the session pipeline is the fallback when no run created
// superblocks.
func fig7bTables(base darco.Config, all []runs) ([]table, error) {
	var names []string
	seen := map[string]bool{}
	for i := range all {
		for _, ps := range all[i][timing.ModeShared].TOL.SBPasses {
			if !seen[ps.Pass] {
				seen[ps.Pass] = true
				names = append(names, ps.Pass)
			}
		}
	}
	if names == nil {
		var err error
		if names, err = base.TOL.PipelineNames(); err != nil {
			return nil, err
		}
	}
	share := func(insts func(*tol.Stats) uint64) func(*darco.Result) float64 {
		return func(res *darco.Result) float64 {
			cyc, total := float64(res.Timing.Cycles), float64(res.TOL.SBMInstTotal())
			if total == 0 || cyc == 0 {
				return 0
			}
			return 100 * res.Timing.ComponentCycles(timing.CompSBM) * (float64(insts(&res.TOL)) / total) / cyc
		}
	}
	pass := func(s *tol.Stats, name string) tol.PassStat {
		for _, ps := range s.SBPasses {
			if ps.Pass == name {
				return ps
			}
		}
		return tol.PassStat{}
	}
	var cols []column
	for _, n := range names {
		cols = append(cols, shared(n, share(func(s *tol.Stats) uint64 { return pass(s, n).CostInsts })))
	}
	cols = append(cols,
		shared("sbm-other", share(func(s *tol.Stats) uint64 { return s.SBOtherInsts })),
		sharedText("eliminated", func(res *darco.Result) string {
			var eliminated uint64
			for _, n := range names {
				eliminated += pass(&res.TOL, n).Eliminated
			}
			return fmt.Sprint(eliminated)
		}))
	return []table{{"Figure 7b: SBM time by optimization pass (% of cycles)", 3, cols}}, nil
}

// FigureIDs lists the paper figures Runner.Figure regenerates, in paper
// order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Figure regenerates one paper figure (see FigureIDs) as its tables —
// two for Figures 5 and 11, one otherwise. Every figure is the same
// grid on the runner's shared session: the session workloads against a
// "mode" axis of the figure's timing modes, so a (benchmark, mode) run
// needed by several figures simulates once.
func (r *Runner) Figure(id string) ([]*stats.Table, error) {
	fi := slices.IndexFunc(figures, func(f figure) bool { return f.id == id })
	if fi < 0 {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %s)", id, strings.Join(FigureIDs(), ", "))
	}
	f := figures[fi]
	all, err := r.results(f.modes)
	if err != nil {
		return nil, err
	}
	tables := f.tables
	if f.derive != nil {
		if tables, err = f.derive(r.opts.Config, all); err != nil {
			return nil, err
		}
	}
	labels := []string{"benchmark", "suite"}
	if f.outliers {
		labels = []string{"case"}
	}
	out := make([]*stats.Table, len(tables))
	for ti, tab := range tables {
		headers := append([]string(nil), labels...)
		for _, c := range tab.cols {
			headers = append(headers, c.name)
		}
		out[ti] = stats.NewTable(tab.title, headers...)
	}
	// addRow appends one row to every table: the benchmarks at the
	// member indices (catalog order) averaged per numeric column — sum
	// in order, divide once.
	addRow := func(name, suite string, avg bool, members ...int) {
		for ti, tab := range tables {
			cells := []any{name, suite}[:len(labels)]
			for _, c := range tab.cols {
				switch {
				case c.num != nil:
					sum := 0.0
					for _, i := range members {
						sum += c.num(&all[i])
					}
					cells = append(cells, sum/float64(len(members)))
				case avg:
					cells = append(cells, "")
				default:
					cells = append(cells, c.text(&all[members[0]]))
				}
			}
			out[ti].AddRowf(tab.prec, cells...)
		}
	}
	if f.outliers {
		for _, o := range workload.Outliers() {
			if i := slices.IndexFunc(r.progs, func(p workload.Program) bool { return p.Name() == o }); i >= 0 {
				addRow(o, "", false, i)
			}
		}
	} else {
		for i, p := range r.progs {
			addRow(p.Name(), p.Meta().Suite, false, i)
		}
	}
	if !f.avg && !f.outliers {
		return out, nil
	}
	// Suite averages in the paper's suite order; programs whose Meta
	// carries another (or no) suite — traces, phased composites, file
	// specs — have rows but join no average.
	for _, s := range workload.Suites() {
		var members []int
		for i, p := range r.progs {
			if p.Meta().Suite == s.String() {
				members = append(members, i)
			}
		}
		if len(members) > 0 {
			addRow("AVG "+s.String(), s.String(), true, members...)
		}
	}
	return out, nil
}

// results runs every session benchmark under the given modes as one
// grid and returns the per-benchmark results in catalog order.
func (r *Runner) results(modes []timing.Mode) ([]runs, error) {
	axis := sweep.Axis{Name: "mode"}
	for _, m := range modes {
		axis.Values = append(axis.Values, sweep.Value{Name: m.String(), Knobs: darco.Knobs{Mode: m.String()}})
	}
	rs, err := r.runGrid(&sweep.Grid{
		Name:      "figure",
		Workloads: r.workloads,
		Scale:     r.opts.Scale,
		Axes:      []sweep.Axis{axis},
	})
	if err != nil {
		return nil, err
	}
	all := make([]runs, len(r.progs))
	for i, p := range r.progs {
		for _, m := range modes {
			all[i][m] = rs.Lookup(p.Name(), m.String()).Result
		}
	}
	return all, nil
}
