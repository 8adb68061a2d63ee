package experiments

import (
	"fmt"
	"math"

	"repro/internal/darco"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
)

// FigSample characterizes the checkpoint/sampling subsystem: every
// benchmark runs once in full detail and once under SimPoint-style
// sampled simulation, and the table compares the whole-run cycle
// estimate against the full-detail reference (error and 95% confidence
// half-width) next to the wall-clock speedup the sampled run achieved.
// Both runs simulate fresh (no preloads, no cross-figure memoization),
// so the timed columns measure real work.

// defaultSamplePlan is the sweep's sampling plan: small intervals so
// the scaled-down catalog benchmarks still span many of them, a 1-in-8
// selection for a large detailed-work reduction, and a warm-up window
// of one sixteenth of the interval.
var defaultSamplePlan = sample.Config{Interval: 50_000, Every: 8, Warmup: 3_000}

// sampleGrid builds the comparison as a grid spec: every benchmark
// against a two-point "sim" axis — full detail versus the sampling
// plan.
func sampleGrid(workloads []string, sc sample.Config, scale float64) *sweep.Grid {
	return &sweep.Grid{
		Name:      "fig-sample",
		Workloads: workloads,
		Scale:     scale,
		Base:      &darco.Knobs{Mode: timing.ModeShared.String(), NoSample: true},
		Axes: []sweep.Axis{{Name: "sim", Values: []sweep.Value{
			{Name: "full"},
			{Name: "sampled", Knobs: darco.Knobs{Sample: &darco.SamplePlan{
				Every: sc.Every, Interval: sc.Interval, Warmup: &sc.Warmup}}},
		}}},
		Baseline: map[string]string{"sim": "full"},
	}
}

// FigSample runs the sampled-vs-full comparison under the given plan
// (nil = defaultSamplePlan). The grid executes sequentially (one cell
// at a time) so the wall-clock columns are not distorted by
// co-scheduling; the sampled leg still measures its selected intervals
// in parallel across the session's workers, exactly as a production
// sampled run would.
func (r *Runner) FigSample(plan *sample.Config) (*stats.Table, error) {
	sc := defaultSamplePlan
	if plan != nil {
		sc = *plan
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// A dedicated session (sweep.Run builds one): results memoized by
	// other figures must not serve either leg, or the timings would
	// measure a map lookup.
	base := r.opts.Config
	rs, err := sweep.Run(r.ctx(), sampleGrid(r.workloads, sc, r.opts.Scale),
		sweep.Options{Config: &base, Jobs: r.opts.Jobs, Sequential: true})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Figure SAMPLE: sampled vs full simulation (interval %d, every %d, warmup %d)",
			sc.Interval, sc.Every, sc.Warmup),
		"benchmark", "suite", "full-cycles", "est-cycles", "err%", "ci95%",
		"measured", "full-s", "sampled-s", "speedup")
	var sumErr, worstErr, sumSpeed float64
	for _, p := range r.progs {
		fullRow := rs.Lookup(p.Name(), "full")
		sampledRow := rs.Lookup(p.Name(), "sampled")
		full, sampled := fullRow.Result, sampledRow.Result
		fullDur, sampDur := fullRow.Elapsed, sampledRow.Elapsed
		rep := sampled.Sampled
		if rep == nil {
			return nil, fmt.Errorf("experiments: sampled run of %s carries no report", p.Name())
		}

		fullCyc := float64(full.Timing.Cycles)
		errPct := 0.0
		if fullCyc > 0 {
			errPct = 100 * math.Abs(float64(rep.EstCycles)-fullCyc) / fullCyc
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
	}
	if n := len(r.progs); n > 0 {
		t.AddRow("AVG", "", "", "",
			fmt.Sprintf("%.2f", sumErr/float64(n)), "", "", "", "",
			fmt.Sprintf("%.1f", sumSpeed/float64(n)))
		t.AddRow("MAX-ERR", "", "", "", fmt.Sprintf("%.2f", worstErr), "", "", "", "", "")
	}
	return t, nil
}
