package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/darco"
	"repro/internal/guest"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// servedGrid is the grid_served spec: every eighth catalog program (6,
// from all four suites) x opt {O0..O3} x promotion {fixed, adaptive} =
// 48 cells.
//
//go:embed grids/served.json
var servedGrid []byte

// sizing fixes how much work one pass of each workload does. The full
// size is what BENCHMARK.json's run_seconds and bounds were chosen for;
// smoke is the same code at a twentieth of the scale, for go test.
type sizing struct {
	key          string // golden.json key prefix
	stride       int    // suite_detailed and translate_churn take every stride-th catalog program
	suiteScale   float64
	hotScale     float64
	churnScale   float64
	churnFuzz    int
	sampledScale float64
	sampling     sample.Config
	gridPrograms int // leading grid workloads kept; 0 = all
}

var (
	fullSize = sizing{
		key:          "full",
		stride:       1,
		suiteScale:   0.22,
		hotScale:     7,
		churnScale:   0.1,
		churnFuzz:    384,
		sampledScale: 2.7,
		sampling:     sample.Config{Interval: 200_000, Every: 4, Warmup: 20_000},
	}
	smokeSize = sizing{
		key:          "smoke",
		stride:       4,
		suiteScale:   0.011,
		hotScale:     0.35,
		churnScale:   0.005,
		churnFuzz:    16,
		sampledScale: 0.135,
		sampling:     sample.Config{Interval: 10_000, Every: 4, Warmup: 1_000},
		gridPrograms: 3,
	}
)

// hotSet are the four catalog programs with the highest dynamic/static
// ratio: nearly all of their guest instructions retire in SBM.
var hotSet = []string{"462.libquantum", "470.lbm", "401.bzip2", "410.bwaves"}

// sampledSet are long, phase-stable programs from three suites.
var sampledSet = []string{"470.lbm", "462.libquantum", "433.milc", "103.novis_everything"}

// fuzzProfiles are drawn round-robin for translate_churn.
var fuzzProfiles = []string{"mixed", "indirect", "shift", "tiny"}

// fuzzMaxDyn caps the estimated dynamic size of a fuzz program.
const fuzzMaxDyn = 12_000

// maxCycles is darco's own runaway guard, restated because the
// bench-owned compositions bypass darco.Config.runWith.
const maxCycles = 200_000_000_000

// counters are the exact counts one pass adds up across its jobs.
// They repeat exactly from run to run.
type counters struct {
	dynIM, dynBBM, dynSBM   uint64
	bbTranslated, sbCreated uint64
	evictions, retrans      uint64
	cosimChecks             uint64
	streamHostInsts         uint64 // instructions the engine streamed
	timingHostInsts, cycles uint64 // instructions and cycles the timing model retired
}

func (c *counters) addTOL(st *tol.Stats) {
	c.dynIM += st.DynIM
	c.dynBBM += st.DynBBM
	c.dynSBM += st.DynSBM
	c.bbTranslated += uint64(st.BBTranslated)
	c.sbCreated += uint64(st.SBCreated)
	c.evictions += st.Evictions
	c.retrans += st.Retranslations
	c.cosimChecks += st.CosimChecks
}

func (c *counters) addTiming(r *timing.Result) {
	c.timingHostInsts += r.TotalInsts()
	c.streamHostInsts += r.TotalInsts()
	c.cycles += r.Cycles
}

// passResult is what one pass of a workload did.
type passResult struct {
	wall        time.Duration // the timed part of the pass
	ops, failed int           // one op is one job, program or cell
	opSec       []float64     // times of consecutive slices of the pass (an op, or part of a long one), cut alike in every pass
	errs        []string      // the first few failures, for the report
	guestInsts  uint64        // guest instructions simulated (grid_served: by its cold run, the first coldOps ops)
	groups      map[string][]string
	counts      counters

	// sampled_long
	sampleErrPct, sampleCI95Rel float64
	intervals, measured         int

	// grid_served: per-cell latencies in ms by phase
	coldOps           int
	coldMs, memoMs    []float64
	storeMs           []float64
	csvBytes, rejects int
}

func newPassResult() *passResult { return &passResult{groups: map[string][]string{}} }

// op counts one operation and its time; a failed one is reported,
// never fatal.
func (r *passResult) op(name string, d time.Duration, err error) bool {
	r.opSec = append(r.opSec, d.Seconds())
	return r.fault(name, err)
}

// fault counts a failure that is not one timed operation's (nil is no
// failure) as one failed operation.
func (r *passResult) fault(name string, err error) bool {
	r.ops++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
	}
	return false
}

// finish closes a pass whose timed part took wall: what the
// operations' own times do not cover (scheduling, record encoding,
// grid enumeration) becomes one more entry of opSec.
func (r *passResult) finish(wall time.Duration) {
	r.wall = wall
	rest := wall.Seconds()
	for _, s := range r.opSec {
		rest -= s
	}
	r.opSec = append(r.opSec, max(rest, 0))
}

// runBatchTimed runs the jobs on a fresh one-worker session, as
// darco-suite -jobs 1 does, and returns each job's time on the worker
// by job index (the session does not start them in index order).
func runBatchTimed(ctx context.Context, jobs []darco.Job) ([]darco.BatchResult, []time.Duration) {
	durs := make([]time.Duration, len(jobs))
	timed := make([]darco.Job, len(jobs))
	for i, job := range jobs {
		var started time.Time
		job.Events = func(ev darco.Event) {
			switch ev.Kind {
			case darco.EventStarted:
				started = time.Now()
			case darco.EventDone, darco.EventFailed:
				if !started.IsZero() {
					durs[i] = time.Since(started)
				}
			}
		}
		timed[i] = job
	}
	return darco.NewSession(darco.WithWorkers(1)).RunBatch(ctx, timed), durs
}

// passFunc runs one pass. reference turns co-simulation on where the
// timed passes run it off, so the pass doubles as an independent check
// of the functional results (it is never timed).
type passFunc func(ctx context.Context, rec *recorder, reference bool) *passResult

// workloadDef is one named workload: setup builds its inputs from the
// seed and returns the pass closure.
type workloadDef struct {
	name string
	// referenceWarmup: the timed passes run cosim off, so the discarded
	// warm-up pass runs cosim on and its digests are the reference.
	referenceWarmup bool
	setup           func(env *env, rec *recorder) (passFunc, error)
}

// env is what a workload's setup gets: the seed, the sizing and a
// directory for temporary stores.
type env struct {
	seed   int64
	size   sizing
	outDir string
	golden *golden
}

var workloads = []workloadDef{
	{name: "suite_detailed", setup: setupSuiteDetailed},
	{name: "functional_hot", referenceWarmup: true, setup: setupFunctionalHot},
	{name: "translate_churn", referenceWarmup: true, setup: setupTranslateChurn},
	{name: "sampled_long", setup: setupSampledLong},
	{name: "grid_served", setup: setupGridServed},
}

// builtProgram is a guest image built in set-up, for the workloads
// that drive tol.Engine directly.
type builtProgram struct {
	name, group string
	image       *guest.Program
}

// buildProgram opens, scales and builds one workload reference.
func buildProgram(rec *recorder, ref string, scale float64) (workload.Program, *guest.Program, error) {
	p, err := workload.Open(ref)
	if err != nil {
		return nil, nil, err
	}
	if p, err = workload.ScaleProgram(p, scale); err != nil {
		return nil, nil, err
	}
	id := rec.begin(spanWorkloadBuild, ref, 0)
	img, err := p.Build()
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ref, err)
	}
	return p, img, nil
}

// every returns every stride-th element of refs.
func every(refs []string, stride int) []string {
	var out []string
	for i := 0; i < len(refs); i += stride {
		out = append(out, refs[i])
	}
	return out
}

// shuffled returns refs in a seed-determined order. The catalog is the
// input; the seed decides the order it is presented in, which no
// result may depend on.
func shuffled(refs []string, seed int64) []string {
	out := append([]string(nil), refs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---- suite_detailed ----

func setupSuiteDetailed(env *env, rec *recorder) (passFunc, error) {
	refs := workload.Names()
	for _, s := range workload.RV32Catalog() {
		refs = append(refs, "rv32:"+s.Name)
	}
	refs = shuffled(every(refs, env.size.stride), env.seed)
	cfg := darco.DefaultConfig() // O2, shared mode, unbounded cache, cosim on
	jobs := make([]darco.Job, len(refs))
	for i, ref := range refs {
		p, _, err := buildProgram(rec, ref, env.size.suiteScale)
		if err != nil {
			return nil, err
		}
		// What darco.WithWorkload, and so darco-suite, makes of the reference.
		jobs[i] = darco.JobForProgram(p, env.size.suiteScale, darco.WithConfig(cfg))
		jobs[i].Ref = ref
	}
	return func(ctx context.Context, rec *recorder, _ bool) *passResult {
		r := newPassResult()
		start := time.Now()
		root := rec.begin(spanDarcoSession, "", 0)
		var batch []darco.BatchResult
		var durs []time.Duration
		if rec == nil {
			batch, durs = runBatchTimed(ctx, jobs)
		} else {
			batch, durs = make([]darco.BatchResult, len(jobs)), make([]time.Duration, len(jobs))
			for i, job := range jobs {
				t := time.Now()
				batch[i].Result, batch[i].Err = runDetailed(ctx, rec, root, job, cfg)
				durs[i] = time.Since(t)
			}
		}
		rec.end(root)
		recs := make([]darco.Record, len(jobs))
		for i, br := range batch {
			meta := jobs[i].Program.Meta()
			recs[i] = darco.NewRecord(jobs[i].Name, meta.Suite, env.size.suiteScale, cfg.Mode, br.Result, br.Err)
			if !r.op(refs[i], durs[i], br.Err) {
				continue
			}
			res := br.Result
			r.guestInsts += res.GuestDyn()
			r.counts.addTOL(&res.TOL)
			r.counts.addTiming(res.Timing)
			r.groups["suite_detailed"] = append(r.groups["suite_detailed"],
				statLine(refs[i], &res.TOL, &res.Final, res.Timing))
		}
		id := rec.begin(spanDarcoRecord, "", 0)
		if err := darco.EncodeRecords(io.Discard, recs); err != nil {
			r.fault("encode records", err)
		}
		rec.end(id)
		r.finish(time.Since(start))
		return r
	}, nil
}

// runDetailed is the bench-owned composition the traced passes use in
// place of darco.Config.runWith, with a span around each call into a
// layer. It must stay a mirror of runWith's full-detail path.
func runDetailed(ctx context.Context, rec *recorder, parent int, job darco.Job, cfg darco.Config) (*darco.Result, error) {
	id := rec.begin(spanWorkloadBuild, job.Ref, parent)
	p, err := job.Program.Build()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(spanTOLNewEngine, job.Ref, parent)
	eng := tol.NewEngine(cfg.TOL, p)
	rec.end(id)
	eng.SetContext(ctx)
	src := &tracedSource{eng: eng}
	id = rec.begin(spanTimingSim, job.Ref, parent)
	sim := timing.NewSimulator(cfg.Timing, cfg.Mode)
	sim.MaxCycles = maxCycles
	tres, err := sim.RunContext(ctx, src)
	rec.end(id)
	rec.compact(spanTOLStream, job.Ref, id, src.first, src.busy, src.calls)
	if err == nil {
		err = eng.Err()
	}
	if err == nil && !eng.Halted() {
		err = errors.New("guest program did not halt")
	}
	if err != nil {
		return nil, err
	}
	return &darco.Result{
		Timing:         tres,
		TOL:            eng.Stats,
		CodeCacheInsts: eng.CC.UsedInsts(),
		Translations:   len(eng.CC.Translations()),
		Final:          *eng.GuestState(),
	}, nil
}

// ---- functional_hot and translate_churn: tol.Engine alone ----

func setupFunctionalHot(env *env, rec *recorder) (passFunc, error) {
	var progs []builtProgram
	for _, ref := range shuffled(hotSet, env.seed) {
		_, img, err := buildProgram(rec, ref, env.size.hotScale)
		if err != nil {
			return nil, err
		}
		progs = append(progs, builtProgram{name: ref, group: "functional_hot", image: img})
	}
	cfg := tol.DefaultConfig()
	return functionalPass(progs, cfg), nil
}

func setupTranslateChurn(env *env, rec *recorder) (passFunc, error) {
	var progs []builtProgram
	for _, ref := range shuffled(every(workload.Names(), env.size.stride), env.seed) {
		_, img, err := buildProgram(rec, ref, env.size.churnScale)
		if err != nil {
			return nil, err
		}
		progs = append(progs, builtProgram{name: ref, group: "translate_churn.catalog", image: img})
	}
	group := fmt.Sprintf("translate_churn.fuzz.seed%d", env.seed)
	for i := 0; i < env.size.churnFuzz; i++ {
		// The generator of the fuzz: source, with the dynamic size capped:
		// uncapped, one program in ten runs for half a million
		// instructions and decides how long the whole seed takes.
		spec, err := workload.GenSpec(env.seed*10000+int64(i), fuzzProfiles[i%len(fuzzProfiles)])
		if err != nil {
			return nil, err
		}
		spec = spec.Clamp(fuzzMaxDyn)
		id := rec.begin(spanWorkloadBuild, spec.Name, 0)
		img, err := spec.Build()
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		progs = append(progs, builtProgram{name: spec.Name, group: group, image: img})
	}
	cfg := tol.DefaultConfig()
	if err := tol.ApplyOptLevel(&cfg, 3); err != nil {
		return nil, err
	}
	cfg.Cache = tol.CacheConfig{CapacityInsts: 256, Policy: "lru-translation"}
	return functionalPass(progs, cfg), nil
}

// sliceHostInsts is the stream length after which functionalPass cuts
// a timing slice: some 50 ms of steady-state translated execution.
const sliceHostInsts = 4_000_000

// functionalPass drains each program's stream through a fresh engine
// into a 1024-entry buffer and discards it: the sample fast-forward
// path, with no timing model behind it.
func functionalPass(progs []builtProgram, cfg tol.Config) passFunc {
	return func(ctx context.Context, rec *recorder, reference bool) *passResult {
		cfg := cfg
		cfg.Cosim = reference
		r := newPassResult()
		buf := make([]timing.DynInst, 1024)
		start := time.Now()
		for _, bp := range progs {
			t := time.Now()
			id := rec.begin(spanTOLNewEngine, bp.name, 0)
			eng := tol.NewEngine(cfg, bp.image)
			rec.end(id)
			eng.SetContext(ctx)
			id = rec.begin(spanTOLStream, bp.name, 0)
			var host, sliced uint64
			for {
				n := eng.NextBatch(buf)
				if n == 0 {
					break
				}
				host += uint64(n)
				// A long program is cut into slices by stream length, which
				// every pass repeats exactly.
				if host-sliced >= sliceHostInsts {
					now := time.Now()
					r.opSec = append(r.opSec, now.Sub(t).Seconds())
					t, sliced = now, host
				}
			}
			rec.end(id)
			err := eng.Err()
			if err == nil && !eng.Halted() {
				err = errors.New("guest program did not halt")
			}
			if !r.op(bp.name, time.Since(t), err) {
				continue
			}
			r.guestInsts += eng.Stats.DynTotal()
			r.counts.addTOL(&eng.Stats)
			r.counts.streamHostInsts += host
			r.groups[bp.group] = append(r.groups[bp.group], statLine(bp.name, &eng.Stats, eng.GuestState(), nil))
		}
		r.finish(time.Since(start))
		return r
	}
}

// ---- sampled_long ----

func setupSampledLong(env *env, rec *recorder) (passFunc, error) {
	refs := shuffled(sampledSet, env.seed)
	images := make([]*guest.Program, len(refs))
	programs := make([]workload.Program, len(refs))
	for i, ref := range refs {
		p, img, err := buildProgram(rec, ref, env.size.sampledScale)
		if err != nil {
			return nil, err
		}
		programs[i], images[i] = p, img
	}
	full := env.golden.FullCycles[env.size.key]
	caches := make([]memCache, len(refs)) // traced passes: each program's fast-forward bundle
	for i := range caches {
		caches[i] = memCache{}
	}
	return func(ctx context.Context, rec *recorder, reference bool) *passResult {
		cfg := darco.DefaultConfig()
		cfg.TOL.Cosim = reference
		cfg.Sampling = &env.size.sampling
		r := newPassResult()
		start := time.Now()
		results := make([]*darco.Result, len(refs))
		errs := make([]error, len(refs))
		durs := make([]time.Duration, len(refs))
		var extra time.Duration // further runs of the traced pass: the trace's own work, not the pass's
		if rec == nil {
			jobs := make([]darco.Job, len(refs))
			for i := range refs {
				jobs[i] = darco.JobForProgram(programs[i], env.size.sampledScale, darco.WithConfig(cfg))
			}
			var batch []darco.BatchResult
			batch, durs = runBatchTimed(ctx, jobs)
			for i, br := range batch {
				results[i], errs[i] = br.Result, br.Err
			}
		} else {
			for i := range refs {
				t := time.Now()
				var further time.Duration
				results[i], further, errs[i] = runSampledTraced(ctx, rec, refs[i], programs[i], images[i], cfg, caches[i])
				durs[i] = time.Since(t) - further
				extra += further
			}
		}
		for i, res := range results {
			err := errs[i]
			if err == nil && res.Sampled == nil {
				err = errors.New("no sampling report")
			}
			if !r.op(refs[i], durs[i], err) {
				continue
			}
			r.guestInsts += res.GuestDyn()
			r.counts.addTOL(&res.TOL)
			r.counts.addTiming(res.Timing)
			r.groups["sampled_long"] = append(r.groups["sampled_long"], statLine(refs[i], &res.TOL, &res.Final, res.Timing))
			rep := res.Sampled
			r.intervals += rep.Intervals
			r.measured += len(rep.Measured)
			if m, ok := rep.Metric("cycles"); ok {
				r.sampleCI95Rel = math.Max(r.sampleCI95Rel, m.RelErr)
			}
			if fc := full[refs[i]]; fc != 0 {
				e := 100 * math.Abs(float64(rep.EstCycles)-float64(fc)) / float64(fc)
				r.sampleErrPct = math.Max(r.sampleErrPct, e)
			} else {
				r.fault(refs[i], errors.New("no full-run cycle count in golden.json"))
			}
		}
		r.finish(time.Since(start) - extra)
		return r
	}, nil
}

// memCache is an in-memory sample.BlobCache: the traced run uses it to
// measure the detailed intervals alone (a run that finds the
// fast-forward bundle cached skips the fast-forward).
type memCache map[string]json.RawMessage

func (c memCache) GetRaw(key string) (json.RawMessage, bool, error) {
	raw, ok := c[key]
	return raw, ok, nil
}

func (c memCache) PutRaw(key string, raw json.RawMessage) error { c[key] = raw; return nil }

// runSampledTraced mirrors darco.Config.runSampled. The sampled run
// itself is the untraced one exactly (no bundle cache); a further run
// that finds the fast-forward bundle in cache is the measurement phase
// alone, which splits the first into sample.fastforward and
// sample.measure. It returns the time spent on the further runs (the
// first traced pass also has to fill the cache) so the caller can leave
// them out of the pass.
func runSampledTraced(ctx context.Context, rec *recorder, ref string, wp workload.Program, p *guest.Program, cfg darco.Config, cache memCache) (*darco.Result, time.Duration, error) {
	runner := &sample.Runner{
		TOL: cfg.TOL, Timing: cfg.Timing, Mode: cfg.Mode, MaxCycles: maxCycles,
		Sample: *cfg.Sampling, Parallel: 1,
		Program: workload.Fingerprint(wp),
	}
	coldStart := time.Now()
	sres, err := runner.Run(ctx, p)
	cold := time.Since(coldStart)
	if err != nil {
		return nil, 0, err
	}
	extraStart := time.Now()
	runner.Cache = cache
	if len(cache) == 0 {
		if _, err := runner.Run(ctx, p); err != nil {
			return nil, 0, err
		}
	}
	warmStart := time.Now()
	if _, err := runner.Run(ctx, p); err != nil {
		return nil, 0, err
	}
	warm := time.Since(warmStart)
	ff := max(cold-warm, 0)
	rec.compact(spanSampleFastForward, ref, 0, coldStart, ff, 1)
	rec.compact(spanSampleMeasure, ref, 0, coldStart.Add(ff), cold-ff, 1)
	return &darco.Result{
		Timing:         sres.Timing,
		TOL:            sres.TOL,
		CodeCacheInsts: sres.CodeCacheInsts,
		Translations:   sres.Translations,
		Final:          sres.Final,
		Sampled:        sres.Report,
	}, time.Since(extraStart), nil
}

// ---- grid_served ----

// gridServer is one in-process darco-serve instance on loopback.
type gridServer struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *serve.Client
}

func startGridServer(st *store.Store) *gridServer {
	srv := serve.NewServer(serve.Config{Workers: 1, Store: st})
	hs := httptest.NewServer(srv)
	return &gridServer{srv: srv, hs: hs, client: &serve.Client{BaseURL: hs.URL, HTTPClient: hs.Client()}}
}

func (g *gridServer) stop() {
	g.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = g.srv.Shutdown(ctx) // nothing is queued or running: the client is sequential and has returned
}

func setupGridServed(env *env, rec *recorder) (passFunc, error) {
	grid, err := sweep.DecodeGrid(bytes.NewReader(servedGrid))
	if err != nil {
		return nil, fmt.Errorf("bench/grids/served.json: %w", err)
	}
	if n := env.size.gridPrograms; n > 0 {
		grid.Workloads = grid.Workloads[:n]
	}
	grid.Scale = env.size.churnScale
	cells, err := grid.Cells()
	if err != nil {
		return nil, err
	}
	for _, ref := range grid.Workloads {
		if _, _, err := buildProgram(rec, ref, grid.Scale); err != nil {
			return nil, err
		}
	}
	// Open a store and start and stop a server once, so that their cost
	// is part of setup_s; every pass needs its own empty store.
	dir, err := os.MkdirTemp(env.outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	gs := startGridServer(st)
	_, err = gs.client.Health(context.Background())
	gs.stop()
	if err != nil {
		return nil, err
	}

	return func(ctx context.Context, rec *recorder, reference bool) *passResult {
		r := newPassResult()
		dir, err := os.MkdirTemp(env.outDir, "store-")
		if err != nil {
			r.fault("temp store", err)
			return r
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			r.fault("open store", err)
			return r
		}
		base := darco.DefaultConfig()
		base.TOL.Cosim = reference
		gs := startGridServer(st)
		defer func() { gs.stop() }()

		var coldCSV []byte
		var wall time.Duration // the six runs; not the restarts between them
		run := func(phase string, lat *[]float64) {
			remote := &tracedRemote{c: gs.client, rec: rec}
			sess := darco.NewSession(darco.WithWorkers(1), darco.WithRemote(remote))
			remote.parent = rec.begin(spanSweepRun, phase, 0)
			start := time.Now()
			rs, err := sweep.RunOn(ctx, sess, grid, sweep.Options{Config: &base, Sequential: true})
			wall += time.Since(start)
			rec.end(remote.parent)
			if rs == nil {
				r.ops += len(cells)
				r.failed += len(cells)
				r.errs = append(r.errs, fmt.Sprintf("%s: %v", phase, err))
				return
			}
			for i := range rs.Rows {
				row := &rs.Rows[i]
				var rowErr error
				if row.Error != "" {
					rowErr = errors.New(row.Error)
					// The row keeps only the text of a serve.StatusError.
					if strings.Contains(row.Error, fmt.Sprintf("server returned %d", http.StatusTooManyRequests)) {
						r.rejects++
					}
				}
				if r.op(phase+" "+row.Workload, row.Elapsed, rowErr) {
					*lat = append(*lat, float64(row.Elapsed)/float64(time.Millisecond))
				}
			}
			id := rec.begin(spanSweepTable, phase, 0)
			csv := []byte(rs.CSV())
			rec.end(id)
			if coldCSV == nil {
				coldCSV = csv
				r.coldOps = len(r.opSec)
				r.csvBytes = len(csv)
				for i := range rs.Rows {
					if res := rs.Rows[i].Result; res != nil {
						r.guestInsts += res.GuestDyn()
						r.counts.addTOL(&res.TOL)
						r.counts.addTiming(res.Timing)
					}
				}
				r.groups["grid_served"] = []string{fmt.Sprintf("%x", sha256.Sum256(csv))}
			} else if !bytes.Equal(csv, coldCSV) {
				r.fault(phase, errors.New("CSV differs from the cold run's"))
			}
		}
		run("cold", &r.coldMs)
		for i := 0; i < 3; i++ {
			run("memo-warm", &r.memoMs)
		}
		for i := 0; i < 2; i++ {
			gs.stop()
			gs = startGridServer(st)
			run("store-warm", &r.storeMs)
		}
		r.finish(wall)
		return r
	}, nil
}

// tracedRemote is the darco.RemoteExecutor of the grid_served session.
// With tracing off it is serve.Client.RunRemote; with tracing on it
// mirrors RunRemote with a span around each HTTP exchange.
type tracedRemote struct {
	c      *serve.Client
	rec    *recorder
	parent int // the sweep.run span of the run in progress
}

func (t *tracedRemote) RunRemote(ctx context.Context, ref string, scale float64, cfg darco.Config, events func(darco.Event)) (*darco.Result, error) {
	if t.rec == nil {
		return t.c.RunRemote(ctx, ref, scale, cfg, events)
	}
	id := t.rec.begin(spanServeSubmit, ref, t.parent)
	resp, err := t.c.Submit(ctx, serve.SubmitRequest{Workload: ref, Scale: scale, Config: &cfg})
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = t.rec.begin(spanServeEvents, ref, t.parent)
	_ = t.c.Events(ctx, resp.ID, func(serve.WireEvent) {}) // observability only, as in RunRemote
	t.rec.end(id)
	id = t.rec.begin(spanServeResult, ref, t.parent)
	rec, err := t.c.Result(ctx, resp.ID, true)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	if rec.Error != "" {
		return nil, fmt.Errorf("remote run of %s failed: %s", ref, rec.Error)
	}
	if rec.Result == nil {
		return nil, fmt.Errorf("remote run of %s returned no result", ref)
	}
	return rec.Result, nil
}
