package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/darco"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// This file pins the grid refactor: the pre-refactor figure
// implementations (and their hand-rolled job builders) are kept here
// verbatim as oracles, and each grid-spec figure must regenerate a
// byte-identical table. The oracle job builders double as the memo-key
// compatibility reference — grid cells must produce the same
// darco.Job.Key as the hand-rolled jobs did, so persistent stores and
// cross-figure memoization written before the refactor keep working.

// oracleJob is the pre-refactor Runner.job.
func (r *Runner) oracleJob(p workload.Program, mode timing.Mode) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = mode
	j := darco.JobForProgram(p, r.opts.Scale, darco.WithConfig(cfg))
	j.Ref = r.refs[p.Name()]
	return j
}

// oracleCCJob is the pre-refactor Runner.ccJob.
func (r *Runner) oracleCCJob(p workload.Program, capacity int, policy string) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = timing.ModeShared
	cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: capacity, Policy: policy}
	j := darco.JobForProgram(p, r.opts.Scale, darco.WithConfig(cfg))
	j.Ref = r.refs[p.Name()]
	j.NoPreload = j.NoPreload || capacity > 0
	return j
}

// oraclePhaseJob is the pre-refactor Runner.phaseJob.
func (r *Runner) oraclePhaseJob(p workload.Program, capacity int, policy string) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = timing.ModeShared
	cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: capacity, Policy: policy}
	j := darco.JobForProgram(p, r.opts.Scale, darco.WithConfig(cfg))
	j.Ref = "phased:" + p.Name()
	j.NoPreload = true
	return j
}

// oracleSampleJob is the pre-refactor Runner.sampleJob.
func (r *Runner) oracleSampleJob(p workload.Program, plan *sample.Config) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = timing.ModeShared
	cfg.Sampling = nil
	j := darco.JobForProgram(p, r.opts.Scale, darco.WithConfig(cfg))
	if plan != nil {
		j.Config.Sampling = plan
	}
	j.Ref = r.refs[p.Name()]
	j.NoPreload = true
	return j
}

// forEach and suiteOrder are the pre-refactor iteration helpers the
// verbatim oracles below call.
func (r *Runner) forEach(fn func(p workload.Program) error) error {
	for _, p := range r.progs {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

func suiteOrder() []string {
	var out []string
	for _, s := range workload.Suites() {
		out = append(out, s.String())
	}
	return out
}

func (r *Runner) oracleShared(p workload.Program) (*darco.Result, error) {
	return r.sess.Run(r.ctx(), r.oracleJob(p, timing.ModeShared))
}

// oracleFig5 is the pre-refactor Fig5.
func (r *Runner) oracleFig5() (*stats.Table, *stats.Table, error) {
	ta := stats.NewTable("Figure 5a: static guest code distribution (%)",
		"benchmark", "suite", "IM", "BBM", "SBM")
	tb := stats.NewTable("Figure 5b: dynamic guest code distribution (%)",
		"benchmark", "suite", "IM", "BBM", "SBM")
	type acc struct {
		aIM, aBBM, aSBM, bIM, bBBM, bSBM float64
		n                                int
	}
	suiteAcc := map[string]*acc{}
	err := r.forEach(func(p workload.Program) error {
		res, err := r.oracleShared(p)
		if err != nil {
			return err
		}
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

// oracleFigCC is the pre-refactor FigCC.
func (r *Runner) oracleFigCC(capacities []int) (*stats.Table, error) {
	if capacities == nil {
		capacities = DefaultCCCapacities
	}
	var caps []int
	for _, c := range capacities {
		if c > 0 {
			caps = append(caps, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(caps)))
	policies := tol.RegisteredEvictionPolicies()

	type point struct {
		bench    string
		policy   string
		capacity int
	}
	var jobs []darco.Job
	var points []point
	for _, p := range r.progs {
		jobs = append(jobs, r.oracleCCJob(p, 0, ""))
		points = append(points, point{p.Name(), "", 0})
		for _, pol := range policies {
			for _, c := range caps {
				jobs = append(jobs, r.oracleCCJob(p, c, pol))
				points = append(points, point{p.Name(), pol, c})
			}
		}
	}
	results := make(map[point]*darco.Result, len(jobs))
	for i, br := range r.sess.RunBatch(r.ctx(), jobs) {
		if br.Err != nil {
			return nil, br.Err
		}
		results[points[i]] = br.Result
	}

	t := stats.NewTable("Figure CC: code cache pressure sweep (cycles and retranslation rate vs. capacity)",
		"benchmark", "policy", "cc-size", "cycles", "slowdown",
		"evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%")
	for _, p := range r.progs {
		base := results[point{p.Name(), "", 0}]
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
				addRow(pol, fmt.Sprint(c), results[point{p.Name(), pol, c}])
			}
		}
	}
	return t, nil
}

// oracleFigPhase is the pre-refactor FigPhase.
func (r *Runner) oracleFigPhase(maxPhases, capacityInsts int) (*stats.Table, error) {
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

	progs := make([]workload.Program, 0, maxPhases)
	for n := 1; n <= maxPhases; n++ {
		var members []workload.Spec
		for i := 0; i < n; i++ {
			spec, err := workload.ByName(pool[i%len(pool)])
			if err != nil {
				return nil, fmt.Errorf("experiments: phase member: %w", err)
			}
			members = append(members, spec.Scale(r.opts.Scale))
		}
		p, err := workload.Phased("", members...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		progs = append(progs, p)
	}
	policies := tol.RegisteredEvictionPolicies()

	type point struct {
		phases int
		policy string
	}
	var jobs []darco.Job
	var points []point
	for n, p := range progs {
		jobs = append(jobs, r.oraclePhaseJob(p, 0, ""))
		points = append(points, point{n + 1, ""})
		for _, pol := range policies {
			jobs = append(jobs, r.oraclePhaseJob(p, capacityInsts, pol))
			points = append(points, point{n + 1, pol})
		}
	}
	results := make(map[point]*darco.Result, len(jobs))
	for i, br := range r.sess.RunBatch(r.ctx(), jobs) {
		if br.Err != nil {
			return nil, br.Err
		}
		results[points[i]] = br.Result
	}

	t := stats.NewTable(
		fmt.Sprintf("Figure PHASE: eviction and retranslation vs. phase count (cc-size %d)", capacityInsts),
		"phases", "workload", "policy", "cycles", "slowdown",
		"evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%")
	for n, p := range progs {
		base := results[point{n + 1, ""}]
		addRow := func(policy string, res *darco.Result) {
			slow := 1.0
			if base.Timing.Cycles > 0 {
				slow = float64(res.Timing.Cycles) / float64(base.Timing.Cycles)
			}
			dyn := float64(res.TOL.DynTotal())
			rate := 0.0
			if dyn > 0 {
				rate = 1000 * float64(res.TOL.Retranslations) / dyn
			}
			peak := res.TOL.CacheOccupancyPeak
			if peak == 0 {
				peak = res.CodeCacheInsts
			}
			t.AddRow(fmt.Sprint(n+1), p.Name(), policy,
				fmt.Sprint(res.Timing.Cycles),
				fmt.Sprintf("%.3f", slow),
				fmt.Sprint(res.TOL.Evictions),
				fmt.Sprint(res.TOL.FlushCount),
				fmt.Sprint(res.TOL.Retranslations),
				fmt.Sprintf("%.2f", rate),
				fmt.Sprint(peak),
				fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()))
		}
		addRow("unbounded", base)
		for _, pol := range policies {
			addRow(pol, results[point{n + 1, pol}])
		}
	}
	return t, nil
}

// oracleFigSample is the pre-refactor FigSample.
func (r *Runner) oracleFigSample(plan *sample.Config) (*stats.Table, error) {
	sc := DefaultSamplePlan
	if plan != nil {
		sc = *plan
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sess := darco.NewSession(darco.WithWorkers(r.opts.Jobs))

	t := stats.NewTable(
		fmt.Sprintf("Figure SAMPLE: sampled vs full simulation (interval %d, every %d, warmup %d)",
			sc.Interval, sc.Every, sc.Warmup),
		"benchmark", "suite", "full-cycles", "est-cycles", "err%", "ci95%",
		"measured", "full-s", "sampled-s", "speedup")
	var sumErr, worstErr, sumSpeed float64
	n := 0
	err := r.forEach(func(p workload.Program) error {
		t0 := time.Now()
		full, err := sess.Run(r.ctx(), r.oracleSampleJob(p, nil))
		if err != nil {
			return err
		}
		fullDur := time.Since(t0)
		t0 = time.Now()
		sampled, err := sess.Run(r.ctx(), r.oracleSampleJob(p, &sc))
		if err != nil {
			return err
		}
		sampDur := time.Since(t0)
		rep := sampled.Sampled
		if rep == nil {
			return fmt.Errorf("experiments: sampled run of %s carries no report", p.Name())
		}

		fullCyc := float64(full.Timing.Cycles)
		errPct := 0.0
		if fullCyc > 0 {
			errPct = 100 * abs(float64(rep.EstCycles)-fullCyc) / fullCyc
		}
		ciPct := 0.0
		if m, ok := rep.Metric("cycles"); ok {
			ciPct = 100 * m.RelErr
		}
		speed := 0.0
		if sampDur > 0 {
			speed = float64(fullDur) / float64(sampDur)
		}
		t.AddRow(p.Name(), p.Meta().Suite,
			fmt.Sprint(full.Timing.Cycles),
			fmt.Sprint(rep.EstCycles),
			fmt.Sprintf("%.2f", errPct),
			fmt.Sprintf("%.2f", ciPct),
			fmt.Sprintf("%d/%d", len(rep.Measured), rep.Intervals),
			fmt.Sprintf("%.3f", fullDur.Seconds()),
			fmt.Sprintf("%.3f", sampDur.Seconds()),
			fmt.Sprintf("%.1f", speed))
		sumErr += errPct
		if errPct > worstErr {
			worstErr = errPct
		}
		sumSpeed += speed
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n > 0 {
		t.AddRow("AVG", "", "", "",
			fmt.Sprintf("%.2f", sumErr/float64(n)), "", "", "", "",
			fmt.Sprintf("%.1f", sumSpeed/float64(n)))
		t.AddRow("MAX-ERR", "", "", "", fmt.Sprintf("%.2f", worstErr), "", "", "", "", "")
	}
	return t, nil
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestFig5MatchesOracle(t *testing.T) {
	r := testRunner(t)
	g := mustFigure(t, r, "5")
	ga, gb := g[0], g[1]
	oa, ob, err := r.oracleFig5()
	if err != nil {
		t.Fatal(err)
	}
	if ga.String() != oa.String() {
		t.Errorf("Fig5a diverged from pre-refactor output:\ngrid:\n%s\noracle:\n%s", ga, oa)
	}
	if gb.String() != ob.String() {
		t.Errorf("Fig5b diverged from pre-refactor output:\ngrid:\n%s\noracle:\n%s", gb, ob)
	}
}

func TestFigCCMatchesOracle(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"006.jpg2000dec"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{0, 1024, 512}
	got, err := r.FigCC(caps)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle resubmits the identical jobs; equal memo keys make its
	// runs session cache hits, which is itself part of the contract.
	want, err := r.oracleFigCC(caps)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("FigCC diverged from pre-refactor output:\ngrid:\n%s\noracle:\n%s", got, want)
	}
}

func TestFigPhaseMatchesOracle(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"401.bzip2", "462.libquantum"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.FigPhase(2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.oracleFigPhase(2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("FigPhase diverged from pre-refactor output:\ngrid:\n%s\noracle:\n%s", got, want)
	}
}

// TestFigSampleMatchesOracle compares every deterministic column; the
// wall-clock columns (full-s, sampled-s, speedup) are measured times
// and necessarily differ between the two executions.
func TestFigSampleMatchesOracle(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"462.libquantum"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := sample.Config{Interval: 10_000, Every: 3, Warmup: 1_000}
	got, err := r.FigSample(&plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.oracleFigSample(&plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != want.Title || strings.Join(got.Headers, ",") != strings.Join(want.Headers, ",") {
		t.Fatalf("header diverged: %q %v vs %q %v", got.Title, got.Headers, want.Title, want.Headers)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	timed := map[int]bool{7: true, 8: true, 9: true}
	for i := range got.Rows {
		for c := range got.Rows[i] {
			if timed[c] {
				continue
			}
			if got.Rows[i][c] != want.Rows[i][c] {
				t.Errorf("row %d col %d (%s): grid %q, oracle %q",
					i, c, got.Headers[c], got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
}

// TestGridJobKeysMatchOracle pins memo-key compatibility directly:
// every grid-built job must share its content address with the
// hand-rolled job the figures used before the refactor, so persistent
// stores filled earlier keep serving, and accessors and grid cells
// keep memoizing into one another.
func TestGridJobKeysMatchOracle(t *testing.T) {
	r := testRunner(t)
	p := r.progs[0]
	key := func(j darco.Job, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		k, err := j.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ok := func(j darco.Job) (darco.Job, error) { return j, nil }

	for _, mode := range []timing.Mode{timing.ModeShared, timing.ModeTOLOnly, timing.ModeSplit} {
		got := key(sweep.JobFor(p, r.refs[p.Name()], r.opts.Scale, r.opts.Config,
			&darco.Knobs{Mode: mode.String()}))
		want := key(ok(r.oracleJob(p, mode)))
		if got != want {
			t.Errorf("mode %v: key %q, want %q", mode, got, want)
		}
	}

	zero := 0
	capacity := 512
	for _, pol := range tol.RegisteredEvictionPolicies() {
		got := key(sweep.JobFor(p, r.refs[p.Name()], r.opts.Scale, r.opts.Config,
			&darco.Knobs{Mode: "shared"}, &darco.Knobs{CCPolicy: pol}, &darco.Knobs{CCSize: &capacity}))
		want := key(ok(r.oracleCCJob(p, capacity, pol)))
		if got != want {
			t.Errorf("cc %s: key %q, want %q", pol, got, want)
		}
	}
	got := key(sweep.JobFor(p, r.refs[p.Name()], r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared"}, &darco.Knobs{}, &darco.Knobs{CCSize: &zero}))
	if want := key(ok(r.oracleCCJob(p, 0, ""))); got != want {
		t.Errorf("cc baseline: key %q, want %q", got, want)
	}

	// Phase composites: the grid opens "phased:a+b" and scales it; the
	// oracle scales the members and joins them by hand.
	ref := "phased:401.bzip2+462.libquantum"
	pp, err := workload.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	if pp, err = workload.ScaleProgram(pp, r.opts.Scale); err != nil {
		t.Fatal(err)
	}
	var members []workload.Spec
	for _, name := range []string{"401.bzip2", "462.libquantum"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, spec.Scale(r.opts.Scale))
	}
	op, err := workload.Phased("", members...)
	if err != nil {
		t.Fatal(err)
	}
	got = key(sweep.JobFor(pp, ref, r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared"}, &darco.Knobs{CCSize: &capacity, CCPolicy: "flush-all"}))
	if want := key(ok(r.oraclePhaseJob(op, capacity, "flush-all"))); got != want {
		t.Errorf("phase: key %q, want %q", got, want)
	}

	// Sampled and full legs of FigSample.
	sc := sample.Config{Interval: 10_000, Every: 3, Warmup: 1_000}
	got = key(sweep.JobFor(p, r.refs[p.Name()], r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared", NoSample: true},
		&darco.Knobs{Sample: &darco.SamplePlan{Every: sc.Every, Interval: sc.Interval, Warmup: &sc.Warmup}}))
	if want := key(ok(r.oracleSampleJob(p, &sc))); got != want {
		t.Errorf("sampled leg: key %q, want %q", got, want)
	}
	got = key(sweep.JobFor(p, r.refs[p.Name()], r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared", NoSample: true}))
	if want := key(ok(r.oracleSampleJob(p, nil))); got != want {
		t.Errorf("full leg: key %q, want %q", got, want)
	}
}
