// Package darco is the controller of the simulation infrastructure:
// it wires the co-design component (TOL + host CPU) to the timing
// simulator, runs guest programs end to end, and collects the combined
// results. It corresponds to the "Controller" box of the
// infrastructure's architecture: the main interface for running
// experiments.
//
// The host-facing API has four pillars:
//
//   - Run(ctx, p, opts...): a context-aware single run configured with
//     functional options (WithMode, WithTOLConfig, WithTiming,
//     WithMaxCycles, WithCosim, WithPasses, WithOptLevel,
//     WithPromotion, WithCodeCache, WithProgress). Cancelling ctx
//     aborts the run promptly from inside the timing simulator's cycle
//     loop; invalid configurations (unknown pass, promotion-policy or
//     eviction-policy names, bad thresholds or cache bounds) are
//     rejected by Config.Validate before simulating.
//   - Session: a concurrent batch executor with a worker pool and a
//     config-hash memo cache, for the paper's many-benchmark sweeps
//     (see session.go). The engine is fully deterministic, so
//     concurrent Session results are identical to sequential ones.
//   - JSON-serializable results: Result, Summary and Record marshal to
//     JSON, making suite output machine-readable (cmd/darco-suite
//     -json emits Records that cmd/darco-figs -from consumes).
//   - Knobs: the one run-knob schema outside Go code — the cmd flags
//     (BindFlags), grid values, the submit wire and fuzz cells all
//     spell a knob through it, and Knobs.Apply folds it into a Config
//     (see knobs.go).
//
// Programs come from the pluggable workload layer: a Job carries any
// workload.Program, WithWorkload builds a Job from a
// "<source>:<name>" reference (synthetic:, file:, trace:, phased:),
// and JobForProgram/JobForSpec wrap already-resolved programs.
//
// Co-simulation against the authoritative guest emulator (the x86
// component) is performed inside the engine when enabled; the
// controller additionally exposes isolation runs (ignoring the TOL or
// application stream) used by the interaction experiments.
package darco

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/guest"
	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
)

// Config selects the TOL policies, the host microarchitecture, and the
// stream mode of a run. It is plain data (JSON-serializable): the
// Session memo cache keys runs by the hash of this struct, so two runs
// with equal Configs on the same program are interchangeable.
type Config struct {
	TOL    tol.Config    `json:"tol"`
	Timing timing.Config `json:"timing"`
	Mode   timing.Mode   `json:"mode"`

	// ISA, when non-empty, pins the run to one guest frontend: programs
	// decoding under any other frontend are rejected before simulating.
	// Empty accepts whatever frontend the program declares (the engine
	// resolves it per program), and keeps the JSON form — and therefore
	// every pre-frontend memo-cache and store key — unchanged.
	ISA string `json:"isa,omitempty"`

	// MaxCycles aborts runaway timing simulations (0 = default guard).
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// Sampling, when non-nil, switches the run to SimPoint-style
	// sampled simulation (internal/sample): functional fast-forward
	// with interval checkpoints, detailed simulation of the selected
	// intervals only, whole-run timing reconstructed as estimates with
	// error bars (Result.Sampled). Functional outputs — TOL statistics
	// and the final guest state — remain exact. The field is part of
	// the JSON form, so sampled and full runs never share a memo-cache
	// entry.
	Sampling *sample.Config `json:"sampling,omitempty"`

	// Progress, when non-nil, receives periodic in-run progress
	// reports. It is observability only — it cannot affect results —
	// and is excluded from JSON (and therefore from Session cache
	// keys).
	Progress ProgressFunc `json:"-"`

	// ProgressEvery is the Progress period in simulated cycles
	// (0 = the timing simulator's default).
	ProgressEvery uint64 `json:"-"`
}

// Progress is one in-run progress report.
type Progress struct {
	// Cycles and HostInsts are the simulated cycle count and retired
	// host instructions at the time of the report.
	Cycles    uint64
	HostInsts uint64
}

// ProgressFunc receives periodic Progress reports from inside the
// timing simulator's cycle loop.
type ProgressFunc func(Progress)

// DefaultConfig returns the paper's host configuration with the scaled
// TOL thresholds of tol.DefaultConfig.
func DefaultConfig() Config {
	return Config{
		TOL:    tol.DefaultConfig(),
		Timing: timing.DefaultConfig(),
		Mode:   timing.ModeShared,
	}
}

// Validate rejects configurations that would fail mid-run or silently
// simulate garbage (tol.Config.Validate: negative thresholds,
// degenerate superblock bounds, unknown pass or promotion-policy
// names, an empty pipeline with SBM enabled). Run, RunInteraction and
// Session.Run call it before simulating, so bad configs fail fast with
// a clear error.
func (c *Config) Validate() error {
	if err := c.TOL.Validate(); err != nil {
		return fmt.Errorf("darco: invalid config: %w", err)
	}
	if c.Sampling != nil {
		if err := c.Sampling.Validate(); err != nil {
			return fmt.Errorf("darco: invalid config: %w", err)
		}
	}
	if c.ISA != "" {
		if _, err := guest.LookupISA(c.ISA); err != nil {
			return fmt.Errorf("darco: invalid config: %w", err)
		}
	}
	return nil
}

// defaultMaxCycles guards runaway simulations when Config.MaxCycles is
// left zero.
const defaultMaxCycles = 200_000_000_000

// Result combines the timing and TOL views of one run. It marshals to
// JSON and round-trips exactly.
type Result struct {
	Timing *timing.Result `json:"timing"`
	TOL    tol.Stats      `json:"tol"`

	// Code cache occupancy at the end of the run.
	CodeCacheInsts int `json:"code_cache_insts"`
	Translations   int `json:"translations"`

	// Final guest architectural state.
	Final guest.State `json:"final"`

	// Sampled carries the sampling digest when the run used sampled
	// simulation (Config.Sampling): the plan, the measured intervals,
	// and per-metric estimates with 95% error bars. When set, Timing is
	// the whole-run estimate extrapolated from the measured intervals;
	// TOL and Final are exact either way.
	Sampled *sample.Report `json:"sampled,omitempty"`
}

// GuestDyn returns the number of guest instructions executed.
func (r *Result) GuestDyn() uint64 { return r.TOL.DynTotal() }

// DynamicStaticRatio returns dynamic guest instructions per executed
// static guest instruction (the amortization factor of Figure 6).
func (r *Result) DynamicStaticRatio() float64 {
	st := r.TOL.StaticTotal()
	if st == 0 {
		return 0
	}
	return float64(r.TOL.DynTotal()) / float64(st)
}

// Summary is the flattened, machine-readable digest of a run: the
// top-level quantities every figure reads, plus the timing and TOL
// digests. Unlike Result it contains no enum-indexed arrays or per-PC
// maps, so it is the natural record for suite-level JSON output.
type Summary struct {
	GuestDyn       uint64         `json:"guest_dyn"`
	GuestStatic    int            `json:"guest_static"`
	DynStaticRatio float64        `json:"dyn_static_ratio"`
	Cycles         uint64         `json:"cycles"`
	IPC            float64        `json:"ipc"`
	TOLShare       float64        `json:"tol_share"`
	CodeCacheInsts int            `json:"code_cache_insts"`
	Translations   int            `json:"translations"`
	Timing         timing.Summary `json:"timing"`
	TOL            tol.Summary    `json:"tol"`
}

// Summary flattens the result into its machine-readable digest.
func (r *Result) Summary() Summary {
	return Summary{
		GuestDyn:       r.GuestDyn(),
		GuestStatic:    r.TOL.StaticTotal(),
		DynStaticRatio: r.DynamicStaticRatio(),
		Cycles:         r.Timing.Cycles,
		IPC:            r.Timing.IPC(),
		TOLShare:       r.Timing.TOLShare(),
		CodeCacheInsts: r.CodeCacheInsts,
		Translations:   r.Translations,
		Timing:         r.Timing.Summary(),
		TOL:            r.TOL.Summary(),
	}
}

// Record is the JSON interchange unit of the command-line tools: one
// benchmark × mode run with its digest and (optionally) the full
// result. cmd/darco and cmd/darco-suite emit []Record with -json;
// cmd/darco-figs -from consumes them to regenerate figures without
// re-simulating.
type Record struct {
	Benchmark string  `json:"benchmark"`
	Suite     string  `json:"suite,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	Mode      string  `json:"mode"`
	Summary   Summary `json:"summary"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// NewRecord assembles the interchange record for one run outcome: a
// failure records the error, a success records the digest plus the
// full result.
func NewRecord(benchmark, suite string, scale float64, mode timing.Mode, res *Result, err error) Record {
	rec := Record{
		Benchmark: benchmark,
		Suite:     suite,
		Scale:     scale,
		Mode:      mode.String(),
	}
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.Summary = res.Summary()
	rec.Result = res
	return rec
}

// EncodeRecords writes records as indented JSON — the wire format
// cmd/darco and cmd/darco-suite emit and cmd/darco-figs -from reads.
func EncodeRecords(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// DecodeRecords reads a []Record produced by EncodeRecords. Records
// are returned as stored — failures and summary-only records included;
// consumers that need full results (e.g. Session preloading) skip
// records whose Result is nil.
func DecodeRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// Run executes the program to completion under DefaultConfig modified
// by the given options. Cancelling ctx aborts the simulation promptly
// (the context is polled inside the timing simulator's cycle loop) and
// returns ctx.Err().
func Run(ctx context.Context, p *guest.Program, opts ...Option) (*Result, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.run(ctx, p)
}

// sampleEnv carries the execution-environment knobs of a sampled run
// that live outside Config (and therefore outside the memo-cache key):
// measurement parallelism, the fast-forward bundle cache, and the
// workload fingerprint the bundles are keyed by. The zero value means
// GOMAXPROCS parallelism with no warm-start cache — what a plain Run
// gets; Session fills it from its worker pool and persistent store.
type sampleEnv struct {
	parallel int
	cache    sample.BlobCache
	program  string
}

// run is the single execution path behind Run, Session and the
// experiment runners.
func (cfg Config) run(ctx context.Context, p *guest.Program) (*Result, error) {
	return cfg.runWith(ctx, p, sampleEnv{})
}

// runWith is run plus the sampled-execution environment.
func (cfg Config) runWith(ctx context.Context, p *guest.Program, env sampleEnv) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ISA != "" {
		isa, err := guest.ISAOf(p)
		if err != nil {
			return nil, fmt.Errorf("darco: %w", err)
		}
		if isa.Name != cfg.ISA {
			return nil, fmt.Errorf("darco: run pinned to ISA %q but the program decodes under %q", cfg.ISA, isa.Name)
		}
	}
	if cfg.Sampling != nil {
		return cfg.runSampled(ctx, p, env)
	}
	eng := tol.NewEngine(cfg.TOL, p)
	// The engine polls ctx while generating the stream, so cancellation
	// is honored even when the run is dominated by interpretation and
	// the timing simulator's own per-batch polls are far apart.
	eng.SetContext(ctx)
	sim := timing.NewSimulator(cfg.Timing, cfg.Mode)
	if cfg.MaxCycles != 0 {
		sim.MaxCycles = cfg.MaxCycles
	} else {
		sim.MaxCycles = defaultMaxCycles
	}
	if cfg.Progress != nil {
		fn := cfg.Progress
		sim.Progress = func(cycles, insts uint64) {
			fn(Progress{Cycles: cycles, HostInsts: insts})
		}
		sim.ProgressEvery = cfg.ProgressEvery
	}
	tres, err := sim.RunContext(ctx, eng)
	if err != nil {
		return nil, err
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	if !eng.Halted() {
		return nil, fmt.Errorf("darco: guest program did not halt")
	}
	return &Result{
		Timing:         tres,
		TOL:            eng.Stats,
		CodeCacheInsts: eng.CC.UsedInsts(),
		Translations:   len(eng.CC.Translations()),
		Final:          *eng.GuestState(),
	}, nil
}

// runSampled executes the sampled-simulation path: the internal/sample
// runner does the fast-forward, the parallel interval measurements and
// the extrapolation; this shim adapts its output to the controller's
// Result shape. The estimator combines intervals in index order, so the
// result is bit-identical for any parallelism — the property that lets
// sampled runs share the Session memo cache.
func (cfg Config) runSampled(ctx context.Context, p *guest.Program, env sampleEnv) (*Result, error) {
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = defaultMaxCycles
	}
	r := &sample.Runner{
		TOL:       cfg.TOL,
		Timing:    cfg.Timing,
		Mode:      cfg.Mode,
		MaxCycles: maxCycles,
		Sample:    *cfg.Sampling,
		Parallel:  env.parallel,
		Program:   env.program,
		Cache:     env.cache,
	}
	sres, err := r.Run(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Result{
		Timing:         sres.Timing,
		TOL:            sres.TOL,
		CodeCacheInsts: sres.CodeCacheInsts,
		Translations:   sres.Translations,
		Final:          sres.Final,
		Sampled:        sres.Report,
	}, nil
}

// InteractionResult holds the two runs of the interaction methodology
// of Figures 10 and 11: with interaction modeled (shared structures)
// and without (per-entity private structures, identical streams). The
// engine is fully deterministic, so the co-design behaviour is
// identical across the runs; only resource sharing differs.
type InteractionResult struct {
	Shared *Result `json:"shared"`
	Split  *Result `json:"split"`
}

// RunInteraction performs the interaction experiment's two runs.
// Options apply to both runs; the mode is overridden per leg.
func RunInteraction(ctx context.Context, p *guest.Program, opts ...Option) (*InteractionResult, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var out InteractionResult
	for _, m := range []struct {
		mode timing.Mode
		dst  **Result
	}{
		{timing.ModeShared, &out.Shared},
		{timing.ModeSplit, &out.Split},
	} {
		c := cfg
		c.Mode = m.mode
		r, err := c.run(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("darco: %v run: %w", m.mode, err)
		}
		*m.dst = r
	}
	return &out, nil
}

// AppSlowdown returns the relative execution-time increase of the
// application due to sharing resources with TOL (Figure 10,
// "Application" bars): attributed application cycles with interaction
// divided by the same without interaction.
func (ir *InteractionResult) AppSlowdown() float64 {
	iso := ir.Split.Timing.OwnerCycles(timing.OwnerApp)
	if iso == 0 {
		return 1
	}
	return ir.Shared.Timing.OwnerCycles(timing.OwnerApp) / iso
}

// TOLSlowdown returns the relative execution-time increase of TOL due
// to sharing resources with the application (Figure 10, "TOL" bars).
func (ir *InteractionResult) TOLSlowdown() float64 {
	iso := ir.Split.Timing.OwnerCycles(timing.OwnerTOL)
	if iso == 0 {
		return 1
	}
	return ir.Shared.Timing.OwnerCycles(timing.OwnerTOL) / iso
}

// Potential returns the potential improvement of one entity per bubble
// source if the interaction were eliminated (Figure 11): the bubble-
// cycle difference between the shared and split runs, as a fraction of
// the shared run's total cycles.
func (ir *InteractionResult) Potential(o timing.Owner, k timing.BubbleKind) float64 {
	total := float64(ir.Shared.Timing.Cycles)
	if total == 0 {
		return 0
	}
	return (ir.Shared.Timing.Bubbles[o][k] - ir.Split.Timing.Bubbles[o][k]) / total
}
