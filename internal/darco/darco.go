// Package darco is the controller of the simulation infrastructure:
// it wires the co-design component (TOL + host CPU) to the timing
// simulator, runs guest programs end to end, and collects the combined
// results. It corresponds to the "Controller" box of the
// infrastructure's architecture: the main interface for running
// experiments.
//
// The host-facing API has four pillars:
//
//   - Job: one run as a value — a workload program plus the Config it
//     runs under (Job.Config). WithWorkload builds a Job from a
//     "<source>:<name>" reference (synthetic:, file:, trace:,
//     phased:) and JobForProgram wraps an already-resolved program,
//     both under DefaultConfig; callers then edit Job.Config directly.
//     Config.Validate rejects invalid configurations (unknown pass,
//     promotion-policy or eviction-policy names, bad thresholds, cache
//     bounds or timing geometries) before simulating.
//   - Session: the concurrent executor of Jobs, with a worker pool, a
//     config-hash memo cache and a per-job event stream, for the
//     paper's many-benchmark sweeps (see session.go). Cancelling the
//     context aborts a run promptly from inside the timing simulator's
//     cycle loop. The engine is fully deterministic, so concurrent
//     Session results are identical to sequential ones.
//   - JSON-serializable results: Result, Summary and Record marshal to
//     JSON, making suite output machine-readable (cmd/darco-suite
//     -json emits Records that cmd/darco-figs -from consumes).
//   - Knobs: the one run-knob schema outside Go code — the cmd flags
//     (BindFlags), grid values, the submit wire and fuzz cells all
//     spell a knob through it, and Knobs.Apply folds it into a Config
//     (see knobs.go).
//
// Co-simulation against the authoritative guest emulator (the x86
// component) is performed inside the engine when enabled; Config.Mode
// additionally selects isolation runs (ignoring the TOL or application
// stream) and the split run of the interaction experiments.
package darco

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/guest"
	"repro/internal/sample"
	"repro/internal/strictjson"
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
}

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
// names, an empty pipeline with SBM enabled; timing.Config.Validate:
// structure geometries the simulator cannot build). Run, Job.Key and
// Session.Run call it before simulating, so bad configs fail fast with
// a clear error.
func (c *Config) Validate() error {
	if err := c.TOL.Validate(); err != nil {
		return fmt.Errorf("darco: invalid config: %w", err)
	}
	if err := c.Timing.Validate(); err != nil {
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

// DecodeRecords reads a []Record produced by EncodeRecords through
// strictjson.Decode. Records are returned as stored — failures and
// summary-only records included; consumers that need full results
// (e.g. Session preloading) skip records whose Result is nil.
func DecodeRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	if err := strictjson.Decode(r, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// Run executes an already-built program to completion under
// DefaultConfig edited by opts (see Option). Cancelling ctx aborts the
// simulation promptly (the context is polled inside the timing
// simulator's cycle loop) and returns ctx.Err().
func Run(ctx context.Context, p *guest.Program, opts ...Option) (*Result, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.runWith(ctx, p, runEnv{})
}

// runEnv carries what a run takes from its caller outside Config, and
// therefore outside the memo-cache key: for sampled runs the
// measurement parallelism, the fast-forward bundle cache and the
// workload fingerprint the bundles are keyed by; for full runs the
// in-run progress hook, called from inside the timing simulator's
// cycle loop. The zero value means GOMAXPROCS parallelism, no
// warm-start cache and no progress reports — what a plain Run gets;
// Session fills it from its worker pool, persistent store and event
// stream.
type runEnv struct {
	parallel int
	cache    sample.BlobCache
	program  string
	progress func(cycles, hostInsts uint64)
}

// runWith is the single execution path behind Run and Session.
func (cfg Config) runWith(ctx context.Context, p *guest.Program, env runEnv) (*Result, error) {
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
	sim.Progress = env.progress
	// The engine runs on a goroutine of its own when a core is free;
	// it is the caller's again once Close has joined it.
	src := timing.NewRunAhead(sim, eng, nil)
	defer src.Close() // also when the simulator panics
	tres, err := sim.RunContext(ctx, src)
	if perr := src.Close(); perr != nil {
		return nil, perr
	}
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
func (cfg Config) runSampled(ctx context.Context, p *guest.Program, env runEnv) (*Result, error) {
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
// of Figures 10 and 11: one Job run with interaction modeled
// (ModeShared: shared structures) and without (ModeSplit: per-entity
// private structures, identical streams). The engine is fully
// deterministic, so the co-design behaviour is identical across the
// runs; only resource sharing differs.
type InteractionResult struct {
	Shared *Result `json:"shared"`
	Split  *Result `json:"split"`
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
