// Package sample implements SimPoint-style interval sampling for
// billion-instruction runs: instead of simulating every guest
// instruction in the detailed timing model, the run is divided into
// fixed-size intervals of guest instructions, the machine is
// fast-forwarded through them in cheap functional mode (the co-design
// engine alone, which keeps every piece of TOL software state — profile
// counters, code cache, translation table — exactly as warm as a full
// run would), checkpointed at the boundaries of the selected intervals
// (internal/snapshot machines, held as values: every measurement
// restores from the captured machine, and JSON is written and read
// only when the bundle of checkpoints goes through a BlobCache), and
// only the selected intervals are simulated in detail, in parallel
// across cores, each preceded by a configurable detailed warm-up that
// fills the cold microarchitectural structures before measurement
// begins.
//
// The whole-run statistics are then reconstructed as estimates: exact
// functional quantities (guest instruction counts, TOL statistics,
// final architectural state, total stream length) come from the
// fast-forward pass for free, while timing quantities are extrapolated
// with a ratio estimator — per-interval rates weighted by measured
// stream length — and reported with 95% confidence error bars derived
// from the across-interval variance. The estimator is deterministic:
// intervals are combined in index order, so results are independent of
// the number of workers.
package sample

import (
	"fmt"
	"math"

	"repro/internal/timing"
)

// Config selects the sampling plan. It is plain data: it participates
// in darco's memo-cache key, so sampled and full runs of the same
// workload never alias one cached result.
type Config struct {
	// Interval is the sampling interval in guest instructions.
	Interval uint64 `json:"interval"`

	// Every selects every k-th interval for detailed simulation
	// (1 = all intervals; the speedup over a full detailed run grows
	// roughly linearly with Every).
	Every int `json:"every"`

	// Warmup is the number of guest instructions simulated in detail
	// before each measured interval to warm the cold microarchitectural
	// structures (caches, TLBs, predictor). The warm-up window is
	// excluded from measurement. Must be smaller than Interval.
	Warmup uint64 `json:"warmup,omitempty"`
}

// DefaultConfig returns a sampling plan suited to the synthetic
// workload catalog: 200k-instruction intervals, every 4th simulated,
// 20k instructions of detailed warm-up.
func DefaultConfig() Config {
	return Config{Interval: 200_000, Every: 4, Warmup: 20_000}
}

// Validate rejects degenerate plans before any simulation starts.
func (c *Config) Validate() error {
	if c.Interval == 0 {
		return fmt.Errorf("sample: interval must be positive")
	}
	if c.Every < 1 {
		return fmt.Errorf("sample: every must be >= 1, got %d", c.Every)
	}
	if c.Warmup >= c.Interval {
		return fmt.Errorf("sample: warmup (%d) must be smaller than the interval (%d)", c.Warmup, c.Interval)
	}
	return nil
}

// Interval is one measured interval: its position in the run and the
// detailed-simulation measurement taken over it (warm-up excluded).
type Interval struct {
	Index     int     `json:"index"`      // interval number (start = Index*Interval guest insts)
	Start     uint64  `json:"start"`      // first guest instruction of the interval
	HostInsts uint64  `json:"host_insts"` // measured stream length (the estimator weight)
	Cycles    uint64  `json:"cycles"`     // measured cycles
	CPI       float64 `json:"cpi"`        // Cycles / HostInsts
}

// Metric is one whole-run estimate with its 95% confidence half-width.
// CI95 is zero when fewer than two intervals were measured (a single
// sample has no variance estimate).
type Metric struct {
	Name     string  `json:"name"`
	Estimate float64 `json:"estimate"`
	CI95     float64 `json:"ci95"`
	RelErr   float64 `json:"rel_err,omitempty"` // CI95 / |Estimate|
}

// Report is the sampling digest attached to a sampled run's result:
// the plan, the exact functional totals, the per-interval measurements,
// and the whole-run estimates with error bars.
type Report struct {
	Config Config `json:"config"`

	// Exact quantities from the functional fast-forward.
	GuestInsts uint64 `json:"guest_insts"`
	HostInsts  uint64 `json:"host_insts"`
	Intervals  int    `json:"intervals"` // total intervals in the run

	// FFCached reports that the fast-forward pass (checkpoints and
	// functional totals) was served from the persistent store instead
	// of re-simulated.
	FFCached bool `json:"ff_cached,omitempty"`

	Measured []Interval `json:"measured"`
	Metrics  []Metric   `json:"metrics"`

	// EstCycles is the whole-run cycle estimate (the "cycles" metric,
	// rounded), in clear because every consumer needs it.
	EstCycles uint64 `json:"est_cycles"`
}

// Metric returns the named whole-run estimate, reporting absence with
// ok=false.
func (r *Report) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// metrics lists the whole-run estimates in Report order. Each is read
// off every measured interval, whose spread gives its error bar, and
// off the extrapolated run, which gives its point estimate. cycles is
// the one special case: per interval it reads CPI, and its estimate and
// error bar are whole-run cycles.
var metrics = []struct {
	name string
	of   func(*timing.Result) float64
}{
	{"cycles", func(r *timing.Result) float64 { return float64(r.Cycles) / float64(r.TotalInsts()) }},
	{"ipc", (*timing.Result).IPC},
	{"tol_share", (*timing.Result).TOLShare},
	{"dmiss_bubble_share", func(r *timing.Result) float64 { return r.BubbleShare(timing.BubbleDMiss) }},
	{"imiss_bubble_share", func(r *timing.Result) float64 { return r.BubbleShare(timing.BubbleIMiss) }},
	{"branch_bubble_share", func(r *timing.Result) float64 { return r.BubbleShare(timing.BubbleBranch) }},
	{"sched_bubble_share", func(r *timing.Result) float64 { return r.BubbleShare(timing.BubbleSched) }},
	{"l1d_miss_rate", func(r *timing.Result) float64 { return r.L1D.MissRate() }},
	{"mispredict_rate", func(r *timing.Result) float64 { return r.Branch.MispredictRate() }},
}

// estimate builds the whole-run metrics from per-interval measurements.
// Pooled counters use the ratio estimator (sum of measured counters /
// sum of measured weights, extrapolated by the exact whole-run stream
// length); error bars are 1.96 standard errors of the per-interval
// values. Everything folds in interval-index order, so the estimates
// are bit-identical regardless of measurement parallelism.
func estimate(intervals []Interval, measured []timing.Result, totalHostInsts uint64) (timing.Result, []Metric, uint64) {
	var est timing.Result
	var sumW float64
	var used []*timing.Result
	for i := range intervals {
		if intervals[i].HostInsts == 0 {
			continue // empty tail interval: no information
		}
		est.Add(&measured[i])
		sumW += float64(intervals[i].HostInsts)
		used = append(used, &measured[i])
	}
	if sumW == 0 {
		return timing.Result{}, nil, 0
	}
	// The stream length is exact; only rates are estimated.
	est.Scale(float64(totalHostInsts) / sumW)

	// Ratio point estimates from the pooled counters (self-weighted);
	// CIs from per-interval spread.
	out := make([]Metric, len(metrics))
	vals := make([]float64, len(used))
	for j, m := range metrics {
		for i, r := range used {
			vals[i] = m.of(r)
		}
		out[j] = Metric{Name: m.name, Estimate: m.of(&est), CI95: ci95(vals)}
		if m.name == "cycles" {
			out[j].Estimate = float64(est.Cycles)
			out[j].CI95 *= float64(totalHostInsts) // CPI spread scaled to total cycles
		}
		if a := math.Abs(out[j].Estimate); a > 0 {
			out[j].RelErr = out[j].CI95 / a
		}
	}
	return est, out, est.Cycles
}

// ci95 returns the 95% confidence half-width of the mean of vals
// (1.96 standard errors), or zero when variance cannot be estimated.
func ci95(vals []float64) float64 {
	n := float64(len(vals))
	if n < 2 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / n
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return 1.96 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
