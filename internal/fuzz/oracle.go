package fuzz

import (
	"context"
	"fmt"

	"repro/internal/darco"
	"repro/internal/sample"
	"repro/internal/snapshot"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// defaultMaxGuestInsts guards a single oracle cell against generated
// programs that outrun their dynamic-size estimate. Well above the
// fuzz generator's budget, so it only trips on genuine runaways.
const defaultMaxGuestInsts = 4_000_000

// Oracle runs generated specs across a configuration matrix and
// classifies the outcomes. Every cell runs with co-simulation enabled
// (the per-instruction half of the oracle); the cross-cell half
// compares retired instruction counts and final architectural state
// between cells, which must agree exactly for any correct translator.
type Oracle struct {
	// Session executes and memoizes the matrix runs.
	Session *darco.Session
	// Cells is the configuration matrix (SmokeMatrix if empty).
	Cells []Cell
	// MaxGuestInsts guards each cell (defaultMaxGuestInsts if 0).
	MaxGuestInsts uint64
	// Extra options are appended to every cell — the fault-injection
	// hook of the mutation tests (e.g. setting tol.Config.Fault).
	Extra []darco.Option
	// SnapshotCheck adds the checkpoint/restore leg: the first cell is
	// paused mid-run, snapshotted through the JSON envelope, restored
	// and resumed, and must finish architecturally identical to its
	// uninterrupted run.
	SnapshotCheck bool
	// SampledCheck adds the sampled-vs-full leg: a sampled-simulation
	// run of the first cell must retire the same instructions into the
	// same final state as the full run (functional outputs are exact
	// under sampling).
	SampledCheck bool
}

// New returns an oracle over the given matrix with a private session.
func New(cells []Cell) *Oracle {
	return &Oracle{Session: darco.NewSession(), Cells: cells}
}

// CellOutcome is the result of one (spec, cell) run.
type CellOutcome struct {
	Cell     Cell                 `json:"cell"`
	Name     string               `json:"name"`
	DynTotal uint64               `json:"dyn_total,omitempty"`
	Cycles   uint64               `json:"cycles,omitempty"`
	Err      string               `json:"err,omitempty"`
	Div      *tol.DivergenceError `json:"divergence,omitempty"`
}

// Coverage aggregates the translator activity a fuzzing sweep actually
// exercised — the report fuzzrun emits so a "0 divergences" result can
// be told apart from a sweep that never left the interpreter.
type Coverage struct {
	DynTotal       uint64 `json:"dyn_total"`
	BBTranslated   int    `json:"bb_translated"`
	Promotions     int    `json:"promotions"` // superblocks created
	Evictions      uint64 `json:"evictions"`
	Retranslations uint64 `json:"retranslations"`
	IBTCFills      uint64 `json:"ibtc_fills"`
	// IBTCHits estimates inline indirect-branch hits: dynamic indirect
	// branches not answered by a fill (IM-interpreted indirects make
	// this a lower-bound estimate, not an exact counter).
	IBTCHits    uint64 `json:"ibtc_hits"`
	Chains      uint64 `json:"chains"`
	CosimChecks uint64 `json:"cosim_checks"`
	// ByISA splits DynTotal per guest frontend, so a sweep meant to
	// cover both ISAs can be told apart from one whose rv32 cases all
	// failed to generate (their counts would be missing, not merely
	// small).
	ByISA map[string]uint64 `json:"by_isa,omitempty"`
}

// add folds one run's statistics into the aggregate under the spec's
// frontend ("" means x86, the workload-layer default).
func (c *Coverage) add(isa string, s *tol.Stats) {
	if isa == "" {
		isa = "x86"
	}
	if c.ByISA == nil {
		c.ByISA = make(map[string]uint64)
	}
	c.ByISA[isa] += s.DynTotal()
	c.DynTotal += s.DynTotal()
	c.BBTranslated += s.BBTranslated
	c.Promotions += s.SBCreated
	c.Evictions += s.Evictions
	c.Retranslations += s.Retranslations
	c.IBTCFills += s.IBTCFills
	if s.IndirectDyn > s.IBTCFills {
		c.IBTCHits += s.IndirectDyn - s.IBTCFills
	}
	c.Chains += s.Chains
	c.CosimChecks += s.CosimChecks
}

// Report is the oracle's verdict on one spec.
type Report struct {
	Spec  workload.Spec `json:"spec"`
	Cells []CellOutcome `json:"cells"`
	// CrossCheck records a cross-cell disagreement (different retired
	// counts or final states between configurations) — a translator bug
	// that never tripped a per-instruction cosim check.
	CrossCheck string `json:"cross_check,omitempty"`
	// SnapshotErr and SampledErr record failures of the optional legs.
	SnapshotErr string   `json:"snapshot_err,omitempty"`
	SampledErr  string   `json:"sampled_err,omitempty"`
	Coverage    Coverage `json:"coverage"`
}

// Finding is one actionable divergence: the spec, the cell that
// diverged, and the structured error — the minimizer's input.
type Finding struct {
	Spec workload.Spec
	Cell Cell
	Div  *tol.DivergenceError
}

// Finding returns the first cosim divergence of the report, or nil.
func (r *Report) Finding() *Finding {
	for _, c := range r.Cells {
		if c.Div != nil {
			return &Finding{Spec: r.Spec, Cell: c.Cell, Div: c.Div}
		}
	}
	return nil
}

// Clean reports whether the spec survived every check.
func (r *Report) Clean() bool {
	if r.CrossCheck != "" || r.SnapshotErr != "" || r.SampledErr != "" {
		return false
	}
	for _, c := range r.Cells {
		if c.Div != nil || c.Err != "" {
			return false
		}
	}
	return true
}

func (o *Oracle) cells() []Cell {
	if len(o.Cells) == 0 {
		return SmokeMatrix()
	}
	return o.Cells
}

func (o *Oracle) maxInsts() uint64 {
	if o.MaxGuestInsts == 0 {
		return defaultMaxGuestInsts
	}
	return o.MaxGuestInsts
}

func (o *Oracle) session() *darco.Session {
	if o.Session == nil {
		o.Session = darco.NewSession()
	}
	return o.Session
}

// config renders a cell into the full run configuration: the cell's
// knobs over the defaults, co-simulation forced on — it is the
// per-instruction half of the oracle — the guard against generated
// programs that outrun their estimate, then the oracle's extra options.
func (o *Oracle) config(cell Cell) (darco.Config, error) {
	cfg := darco.DefaultConfig()
	if err := cell.Apply(&cfg); err != nil {
		return cfg, fmt.Errorf("fuzz: cell %s: %w", cell.Name(), err)
	}
	cfg.TOL.Cosim = true
	cfg.TOL.MaxGuestInsts = o.maxInsts()
	for _, opt := range o.Extra {
		opt(&cfg)
	}
	return cfg, nil
}

// job builds the session job running spec under cell.
func (o *Oracle) job(spec workload.Spec, cell Cell) (darco.Job, error) {
	cfg, err := o.config(cell)
	return darco.JobForSpec(spec, 0, darco.WithConfig(cfg)), err
}

// Check runs one spec across the matrix and cross-checks the results.
// The returned error covers harness problems only (an unbuildable spec,
// a cancelled context); divergences and per-cell failures are data, in
// the Report.
func (o *Oracle) Check(ctx context.Context, spec workload.Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := o.cells()
	jobs := make([]darco.Job, len(cells))
	for i, cell := range cells {
		var err error
		if jobs[i], err = o.job(spec, cell); err != nil {
			return nil, err
		}
	}
	batch := o.session().RunBatch(ctx, jobs)

	rep := &Report{Spec: spec}
	var agreeDyn uint64
	var agreeFinal *darco.Result
	for i, br := range batch {
		out := CellOutcome{Cell: cells[i], Name: cells[i].Name()}
		switch {
		case br.Err != nil && ctx.Err() != nil:
			return nil, ctx.Err()
		case br.Err != nil:
			if div, ok := AsDivergence(br.Err); ok {
				out.Div = div
			} else {
				out.Err = br.Err.Error()
			}
		default:
			out.DynTotal = br.Result.GuestDyn()
			out.Cycles = br.Result.Timing.Cycles
			rep.Coverage.add(spec.ISA, &br.Result.TOL)
			// Cross-cell agreement: every configuration must retire the
			// same guest instructions into the same architectural state.
			if agreeFinal == nil {
				agreeDyn, agreeFinal = out.DynTotal, br.Result
			} else if rep.CrossCheck == "" {
				if out.DynTotal != agreeDyn {
					rep.CrossCheck = fmt.Sprintf("cell %s retired %d guest insts, cell %s retired %d",
						cells[i].Name(), out.DynTotal, cells[0].Name(), agreeDyn)
				} else if d := br.Result.Final.Diff(&agreeFinal.Final); d != "" {
					rep.CrossCheck = fmt.Sprintf("final state of cell %s differs from cell %s: %s",
						cells[i].Name(), cells[0].Name(), d)
				}
			}
		}
		rep.Cells = append(rep.Cells, out)
	}

	if o.SnapshotCheck {
		if err := o.checkSnapshotResume(ctx, spec, cells[0]); err != nil {
			rep.SnapshotErr = err.Error()
		}
	}
	if o.SampledCheck {
		if err := o.checkSampledVsFull(ctx, spec, cells[0]); err != nil {
			rep.SampledErr = err.Error()
		}
	}
	return rep, nil
}

// checkSnapshotResume pauses a run of spec at half its retired
// instructions, checkpoints the whole machine through the snapshot
// envelope, restores, resumes, and compares the completed run against
// an uninterrupted one: timing, TOL statistics and final guest state
// must all match exactly.
func (o *Oracle) checkSnapshotResume(ctx context.Context, spec workload.Spec, cell Cell) error {
	cfg, err := o.config(cell)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	p, err := spec.Build()
	if err != nil {
		return err
	}

	// Uninterrupted reference.
	refEng := tol.NewEngine(cfg.TOL, p)
	refEng.SetContext(ctx)
	refSim := timing.NewSimulator(cfg.Timing, cfg.Mode)
	refRes, err := refSim.RunContext(ctx, refEng)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if err := refEng.Err(); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	pause := refEng.Stats.DynTotal() / 2
	if pause == 0 {
		return nil // too short to pause mid-run
	}

	eng := tol.NewEngine(cfg.TOL, p)
	eng.SetContext(ctx)
	sim := timing.NewSimulator(cfg.Timing, cfg.Mode)
	sim.StopWhen = func() bool { return eng.Stats.DynTotal() >= pause }
	if _, err := sim.RunContext(ctx, eng); err != timing.ErrPaused {
		return fmt.Errorf("pause at %d insts: %w", pause, err)
	}
	m, err := snapshot.Capture(spec.Name, eng, sim)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	blob, err := snapshot.Encode(m)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	decoded, err := snapshot.Decode(blob)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	eng2, sim2, err := decoded.Restore(p)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	eng2.SetContext(ctx)
	res, err := sim2.RunContext(ctx, eng2)
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	if err := eng2.Err(); err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}

	if got, want := eng2.Stats.DynTotal(), refEng.Stats.DynTotal(); got != want {
		return fmt.Errorf("resumed run retired %d guest insts, uninterrupted %d", got, want)
	}
	if d := eng2.GuestState().Diff(refEng.GuestState()); d != "" {
		return fmt.Errorf("resumed final state differs: %s", d)
	}
	if got, want := res.Cycles, refRes.Cycles; got != want {
		return fmt.Errorf("resumed run took %d cycles, uninterrupted %d", got, want)
	}
	return nil
}

// checkSampledVsFull compares a sampled-simulation run against the
// full detailed run of the same cell: sampling reconstructs timing as
// estimates, but retired instructions and the final architectural
// state are exact and must match the full run.
func (o *Oracle) checkSampledVsFull(ctx context.Context, spec workload.Spec, cell Cell) error {
	job, err := o.job(spec, cell)
	if err != nil {
		return err
	}
	full, err := o.session().Run(ctx, job)
	if err != nil {
		return fmt.Errorf("full run: %w", err)
	}
	job.Opts = append(job.Opts, darco.WithSampling(sample.Config{Interval: 20_000, Every: 2, Warmup: 2_000}))
	sampled, err := o.session().Run(ctx, job)
	if err != nil {
		return fmt.Errorf("sampled run: %w", err)
	}
	if got, want := sampled.GuestDyn(), full.GuestDyn(); got != want {
		return fmt.Errorf("sampled run retired %d guest insts, full run %d", got, want)
	}
	if d := sampled.Final.Diff(&full.Final); d != "" {
		return fmt.Errorf("sampled final state differs from full: %s", d)
	}
	return nil
}
