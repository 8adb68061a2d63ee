package sweep

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/darco"
	"repro/internal/workload"
)

// Options configures one grid execution.
type Options struct {
	// Config is the base configuration every cell's knob deltas fold
	// into (nil = darco.DefaultConfig).
	Config *darco.Config
	// Jobs bounds local parallelism for Run (0 = GOMAXPROCS).
	Jobs int
	// Session appends session options for Run — darco.WithStore for
	// resumability, darco.WithRemote for remote execution, extra event
	// hooks.
	Session []darco.SessionOption
	// Log, when non-nil, receives one line per started ("run ...") and
	// store- or cache-served ("cached ...") cell.
	Log io.Writer
	// Sequential runs the cells one at a time and records per-cell
	// wall-clock in Row.Elapsed — for sweeps that time the simulator
	// itself (FigSample), where parallel cells would contend.
	Sequential bool
	// Shard/Shards select every Shards-th cell starting at Shard, by
	// the cell's stable full-grid Index, so independent processes (or
	// hosts) given 0/3, 1/3, 2/3 partition the grid exactly. Shards 0
	// means unsharded.
	Shard, Shards int
}

// Row is one executed grid cell in long form: the full coordinates
// (workload + one value per axis), the memo key the result is filed
// under, and the outcome.
type Row struct {
	// Name is the program's display name, Workload the Source-registry
	// reference it was opened from, Suite its suite label.
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Suite    string  `json:"suite,omitempty"`
	Coords   []Coord `json:"coords,omitempty"`
	// Key is the cell's content address (darco.Job.Key) — the key a
	// persistent store serves it back under.
	Key string `json:"key"`
	// Cached reports that this run was served without simulating
	// (memo cache, preloaded records included, or persistent store).
	Cached bool `json:"cached,omitempty"`
	// Elapsed is the cell's wall-clock time (Sequential runs only).
	Elapsed time.Duration  `json:"elapsed,omitempty"`
	Summary *darco.Summary `json:"summary,omitempty"`
	Error   string         `json:"error,omitempty"`
	// Result is the full in-memory result and Program the scaled
	// workload program the cell ran (not serialized; the Summary plus
	// the store carry the durable forms).
	Result  *darco.Result    `json:"-"`
	Program workload.Program `json:"-"`
}

// ResultSet is the long-form outcome of a grid execution: one Row per
// executed cell, in cell enumeration order, together with the grid
// that produced it. It marshals to JSON and aggregates to a
// stats.Table / CSV via Table and CSV.
type ResultSet struct {
	Grid *Grid `json:"grid"`
	Rows []Row `json:"rows"`
}

// Run executes the grid on a fresh session with opts.Jobs workers plus
// any opts.Session options. It returns the complete ResultSet (rows
// for failed cells carry Error) and the first cell error, if any.
func Run(ctx context.Context, g *Grid, opts Options) (*ResultSet, error) {
	sess := darco.NewSession(append([]darco.SessionOption{darco.WithWorkers(opts.Jobs)}, opts.Session...)...)
	return RunOn(ctx, sess, g, opts)
}

// RunOn executes the grid on an existing session — the entry point for
// callers that share one session (and therefore one memo cache) across
// several grids, like the figure harness. Cells are enumerated,
// shard-filtered, mapped to jobs through JobFor and executed in
// parallel (or sequentially under opts.Sequential); a session with a
// persistent store serves previously completed cells from it, which is
// the whole resume story.
func RunOn(ctx context.Context, sess *darco.Session, g *Grid, opts Options) (*ResultSet, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	if opts.Shards > 0 {
		if opts.Shard < 0 || opts.Shard >= opts.Shards {
			return nil, fmt.Errorf("sweep: shard %d out of range 0..%d", opts.Shard, opts.Shards-1)
		}
		kept := cells[:0]
		for _, c := range cells {
			if c.Index%opts.Shards == opts.Shard {
				kept = append(kept, c)
			}
		}
		cells = kept
	}

	base := darco.DefaultConfig()
	if opts.Config != nil {
		base = *opts.Config
	}

	// Resolve and scale each distinct effective workload reference once
	// (an ISA knob redirects synthetic references to that frontend's
	// catalog, so one grid reference can resolve differently per cell);
	// a broken reference fails the sweep before any cell simulates.
	progs := map[string]workload.Program{}
	open := func(ref string) (workload.Program, error) {
		if p, ok := progs[ref]; ok {
			return p, nil
		}
		p, err := workload.OpenScaled(ref, g.Scale)
		if err != nil {
			return nil, err
		}
		progs[ref] = p
		return p, nil
	}

	rows := make([]Row, len(cells))
	jobs := make([]darco.Job, len(cells))
	for i, cell := range cells {
		knobs := g.knobsFor(cell)
		isa := base.ISA
		for _, k := range knobs {
			if k.ISA != "" {
				isa = k.ISA
			}
		}
		ref := workload.RefForISA(cell.Workload, isa)
		p, err := open(ref)
		if err != nil {
			return nil, err
		}
		j, err := JobFor(p, ref, g.Scale, base, knobs...)
		if err != nil {
			return nil, err
		}
		key, err := j.Key()
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %w", cell.Index, cell.Workload, err)
		}
		rows[i] = Row{
			Name:     p.Name(),
			Workload: cell.Workload,
			Suite:    p.Meta().Suite,
			Coords:   cell.Coords,
			Key:      key,
			Program:  p,
		}
		row := &rows[i]
		j.Events = func(ev darco.Event) {
			// Delivered serially by the session (under its event mutex)
			// and strictly before the corresponding Run returns, so the
			// row write is safe and visible when results are read.
			switch ev.Kind {
			case darco.EventCached:
				row.Cached = true
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "cached %-19s %s\n", ev.Job, ev.Mode)
				}
			case darco.EventStarted:
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "run %-22s %s\n", ev.Job, ev.Mode)
				}
			}
		}
		jobs[i] = j
	}

	var firstErr error
	record := func(i int, res *darco.Result, err error) {
		if err != nil {
			rows[i].Error = err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("sweep: cell %d (%s): %w", cells[i].Index, cells[i].Workload, err)
			}
			return
		}
		s := res.Summary()
		rows[i].Summary = &s
		rows[i].Result = res
	}
	if opts.Sequential {
		for i := range jobs {
			start := time.Now()
			res, err := sess.Run(ctx, jobs[i])
			rows[i].Elapsed = time.Since(start)
			record(i, res, err)
		}
	} else {
		for i, br := range sess.RunBatch(ctx, jobs) {
			record(i, br.Result, br.Err)
		}
	}
	return &ResultSet{Grid: g, Rows: rows}, firstErr
}
