package sample

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"repro/internal/guest"
	"repro/internal/snapshot"
	"repro/internal/timing"
	"repro/internal/tol"
)

// BlobCache persists opaque JSON blobs under string keys — the subset
// of internal/store's raw interface the sampling runner uses to cache
// fast-forward checkpoint bundles, so repeated sampled runs of the same
// workload and plan (e.g. darco-serve re-submissions) warm-start
// without re-running the functional pass. internal/store.Store
// implements it.
type BlobCache interface {
	GetRaw(key string) (json.RawMessage, bool, error)
	PutRaw(key string, raw json.RawMessage) error
}

// Runner executes one sampled run. The zero value is not usable: TOL,
// Timing and Sample must be set (darco fills them from its resolved
// Config).
type Runner struct {
	TOL       tol.Config
	Timing    timing.Config
	Mode      timing.Mode
	MaxCycles uint64 // per-interval detailed-simulation guard (0 = none)
	Sample    Config

	// Parallel bounds concurrent interval simulations (< 1 selects
	// GOMAXPROCS). Results are bit-identical for any value. Each
	// measurement counts against the process-wide core budget of
	// timing.RunAhead, and so does its engine when it runs ahead on a
	// second goroutine, which it does only while a core is free: at
	// Parallel >= GOMAXPROCS every measurement is synchronous.
	Parallel int

	// Program is the workload content fingerprint, used to label
	// checkpoint envelopes and key the fast-forward cache. Empty
	// disables caching (an unfingerprinted program has no stable
	// identity to file bundles under).
	Program string

	// Cache, when non-nil and Program is set, persists the fast-forward
	// bundle (checkpoints + exact functional totals) across runs.
	Cache BlobCache
}

// Result is the outcome of a sampled run: exact functional state plus
// estimated timing.
type Result struct {
	// Report is the sampling digest: plan, measured intervals, metric
	// estimates with error bars.
	Report *Report

	// Timing is the whole-run estimate, extrapolated from the measured
	// intervals — shaped exactly like a full run's result so downstream
	// consumers (summaries, figures) need no special casing.
	Timing *timing.Result

	// Exact functional outputs from the fast-forward pass.
	TOL            tol.Stats
	Final          guest.State
	CodeCacheInsts int
	Translations   int
}

// ffBundleVersion versions the persisted fast-forward bundle.
const ffBundleVersion = 1

// ffSnap is one interval checkpoint inside a bundle: the interval index
// and the captured machine. Restore only reads the machine, so every
// measurement restores from this one value.
type ffSnap struct {
	Index   int               `json:"index"`
	Machine *snapshot.Machine `json:"machine"`
}

// ffBundle is everything the functional fast-forward pass produces:
// interval checkpoints plus the exact whole-run functional totals. It
// is the unit cached through BlobCache.
type ffBundle struct {
	Version        int         `json:"version"`
	Program        string      `json:"program,omitempty"`
	Sample         Config      `json:"sample"`
	GuestInsts     uint64      `json:"guest_insts"`
	HostInsts      uint64      `json:"host_insts"`
	Snapshots      []ffSnap    `json:"snapshots"`
	Stats          tol.Stats   `json:"stats"`
	Final          guest.State `json:"final"`
	CodeCacheInsts int         `json:"code_cache_insts"`
	Translations   int         `json:"translations"`
}

// cacheKey derives the bundle's store key: the program fingerprint plus
// a hash of everything that shapes the functional pass (the TOL
// configuration and the sampling plan). Timing configuration and mode
// deliberately do not participate — they only affect measurement, so
// one bundle serves every microarchitecture swept over the same
// workload. Both configurations are plain data, so Marshal cannot fail.
func (r *Runner) cacheKey() string {
	tj, _ := json.Marshal(&r.TOL)
	sj, _ := json.Marshal(&r.Sample)
	h := fnv.New64a()
	h.Write(tj)
	h.Write([]byte{0})
	h.Write(sj)
	return fmt.Sprintf("ff|%s|%016x", r.Program, h.Sum64())
}

// Run executes the sampled run: fast-forward (or bundle-cache hit),
// parallel interval measurement, extrapolation.
func (r *Runner) Run(ctx context.Context, p *guest.Program) (*Result, error) {
	if err := r.Sample.Validate(); err != nil {
		return nil, err
	}
	bundle, cached, err := r.loadOrFastForward(ctx, p)
	if err != nil {
		return nil, err
	}
	if bundle.GuestInsts == 0 {
		return nil, fmt.Errorf("sample: program retired no guest instructions")
	}

	// Measured intervals: every snapshot whose interval actually starts
	// inside the run (the fast-forward may checkpoint a boundary the
	// program ends before).
	var snaps []ffSnap
	for _, s := range bundle.Snapshots {
		if uint64(s.Index)*r.Sample.Interval < bundle.GuestInsts {
			snaps = append(snaps, s)
		}
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("sample: no measurable intervals (run of %d guest insts, interval %d)", bundle.GuestInsts, r.Sample.Interval)
	}

	intervals := make([]Interval, len(snaps))
	results := make([]timing.Result, len(snaps))
	errs := make([]error, len(snaps))
	workers := r.Parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer timing.CatchPanic(&errs[i])
			intervals[i], results[i], errs[i] = r.measure(ctx, p, &snaps[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sample: interval %d: %w", snaps[i].Index, err)
		}
	}

	est, metrics, estCycles := estimate(intervals, results, bundle.HostInsts)
	return &Result{
		Report: &Report{
			Config:     r.Sample,
			GuestInsts: bundle.GuestInsts,
			HostInsts:  bundle.HostInsts,
			Intervals:  int((bundle.GuestInsts + r.Sample.Interval - 1) / r.Sample.Interval),
			FFCached:   cached,
			Measured:   intervals,
			Metrics:    metrics,
			EstCycles:  estCycles,
		},
		Timing:         &est,
		TOL:            bundle.Stats,
		Final:          bundle.Final,
		CodeCacheInsts: bundle.CodeCacheInsts,
		Translations:   bundle.Translations,
	}, nil
}

// loadOrFastForward serves the fast-forward bundle from the cache when
// possible, falling back to (and then persisting) a fresh functional
// pass. Cache failures degrade to simulation — a broken store never
// fails a run.
func (r *Runner) loadOrFastForward(ctx context.Context, p *guest.Program) (*ffBundle, bool, error) {
	var key string
	if r.Cache != nil && r.Program != "" {
		key = r.cacheKey()
		if raw, ok, err := r.Cache.GetRaw(key); err == nil && ok {
			var b ffBundle
			if json.Unmarshal(raw, &b) == nil && r.restorable(&b, p) {
				return &b, true, nil
			}
		}
	}
	b, err := r.fastForward(ctx, p)
	if err != nil {
		return nil, false, err
	}
	if key != "" {
		if raw, err := json.Marshal(b); err == nil {
			_ = r.Cache.PutRaw(key, raw)
		}
	}
	return b, false, nil
}

// restorable reports whether a cached bundle belongs to this run and
// every checkpoint in it is one this build can restore onto p, at the
// interval the fast-forward pass would have taken it: 0, Every,
// 2·Every, … in order.
func (r *Runner) restorable(b *ffBundle, p *guest.Program) bool {
	if b.Version != ffBundleVersion || b.Program != r.Program || b.Sample != r.Sample {
		return false
	}
	isa, err := guest.ISAOf(p)
	if err != nil {
		return false
	}
	for i, s := range b.Snapshots {
		m := s.Machine
		if s.Index != i*r.Sample.Every || m == nil || m.Validate(r.Program) != nil || (m.ISA != "" && m.ISA != isa.Name) {
			return false
		}
	}
	return true
}

// fastForward runs the program once in functional mode (the engine
// alone — no timing model), checkpointing the machine at the start of
// each selected interval's warm-up window and counting the exact
// stream length. The engine is bit-exact with the engine of a full
// detailed run, so the functional totals are exact, not estimates.
func (r *Runner) fastForward(ctx context.Context, p *guest.Program) (*ffBundle, error) {
	eng := tol.NewEngine(r.TOL, p)
	eng.SetContext(ctx)
	b := &ffBundle{Version: ffBundleVersion, Program: r.Program, Sample: r.Sample}

	snap := func(index int) error {
		m, err := snapshot.Capture(r.Program, eng, nil)
		if err != nil {
			return fmt.Errorf("sample: checkpoint at interval %d: %w", index, err)
		}
		b.Snapshots = append(b.Snapshots, ffSnap{Index: index, Machine: m})
		return nil
	}

	// Interval 0 measures from reset: checkpoint the pristine machine.
	if err := snap(0); err != nil {
		return nil, err
	}
	next := r.Sample.Every // next interval to checkpoint for
	for {
		// Warm-up for interval `next` begins Warmup guest insts before
		// its boundary.
		eng.SetStopAfter(uint64(next)*r.Sample.Interval - r.Sample.Warmup)
		b.HostInsts += eng.Drain()
		if err := eng.Err(); err != nil {
			return nil, err
		}
		if !eng.Paused() {
			break // ran to completion before the next checkpoint
		}
		if err := snap(next); err != nil {
			return nil, err
		}
		next += r.Sample.Every
	}
	if !eng.Halted() {
		return nil, fmt.Errorf("sample: guest program did not halt")
	}
	b.GuestInsts = eng.Stats.DynTotal()
	b.Stats = eng.Stats
	b.Final = *eng.GuestState()
	b.CodeCacheInsts = eng.CC.UsedInsts()
	b.Translations = len(eng.CC.Translations())
	return b, nil
}

// measure simulates one interval in detail: restore the checkpointed
// engine, run a fresh (cold) simulator through the warm-up window, mark
// the baseline, run to the interval's end, and return the difference.
func (r *Runner) measure(ctx context.Context, p *guest.Program, s *ffSnap) (Interval, timing.Result, error) {
	eng, _, err := s.Machine.Restore(p)
	if err != nil {
		return Interval{}, timing.Result{}, err
	}
	eng.SetContext(ctx)
	start := uint64(s.Index) * r.Sample.Interval
	eng.SetStopAfter(start + r.Sample.Interval)

	sim := timing.NewSimulator(r.Timing, r.Mode)
	sim.MaxCycles = r.MaxCycles
	// The engine may run ahead on its own goroutine, so the warm-up
	// test reads its retired-instruction count as of the simulator's
	// position in the stream, through the probe.
	src := timing.NewRunAhead(sim, eng, eng.Stats.DynTotal)
	defer src.Close() // also when the simulator panics
	sim.StopWhen = func() bool { return src.Probe() >= start }
	var base timing.Result
	res, err := sim.RunContext(ctx, src)
	if err == timing.ErrPaused {
		// Warm-up done: mark the baseline and measure to the interval
		// end (the engine pauses there; the pipeline then drains).
		base = sim.ResultSoFar()
		sim.StopWhen = nil
		res, err = sim.RunContext(ctx, src)
	}
	if perr := src.Close(); perr != nil {
		err = perr
	}
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		return Interval{}, timing.Result{}, err
	}
	measured := res.Sub(&base)
	iv := Interval{
		Index:     s.Index,
		Start:     start,
		HostInsts: measured.TotalInsts(),
		Cycles:    measured.Cycles,
	}
	if iv.HostInsts > 0 {
		iv.CPI = float64(iv.Cycles) / float64(iv.HostInsts)
	}
	return iv, measured, nil
}
