package main

import (
	"slices"
	"time"
)

const mb = 1 << 20

// perPass collects one value from every pass.
func perPass(ms []*measured, f func(*measured) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

// fastest returns the pass with the least wall-clock.
func fastest(ms []*measured) *measured {
	best := ms[0]
	for _, m := range ms[1:] {
		if m.res.wall < best.res.wall {
			best = m
		}
	}
	return best
}

// chunkSeconds is the least time a chunk of undisturbed covers: long
// enough that every pass's copy of a chunk holds its share of garbage
// collection, short enough to fit between two slow spells of the
// machine.
const chunkSeconds = 0.1

// undisturbed estimates how long operations [lo, hi) of a pass take
// when nothing else disturbs the machine. The machines this runs on
// slow memory-bound code down by 20-60 % for seconds at a time
// (README: "Why undisturbed time"); that noise only ever adds time and
// comes in spells, so the operations are cut into consecutive chunks of
// at least chunkSeconds (by the first pass's times, so that every pass
// is cut alike), each chunk takes its fastest time over all passes, and
// the chunks are summed. Every pass does identical work, which the stat
// digests check.
func undisturbed(ms []*measured, lo, hi int) float64 {
	sum, chunk := 0.0, 0.0
	best := make([]float64, len(ms))
	flush := func() {
		sum += slices.Min(best)
		clear(best)
		chunk = 0
	}
	for i := lo; i < hi; i++ {
		for p, m := range ms {
			best[p] += m.res.opSec[i]
		}
		if chunk += ms[0].res.opSec[i]; chunk >= chunkSeconds {
			flush()
		}
	}
	if chunk > 0 {
		flush()
	}
	return sum
}

// endToEnd reduces the untraced timed passes to the end-to-end
// metrics: what a user of the simulator sees, on an undisturbed
// machine. Samples keeps each pass's plain wall-clock.
func endToEnd(setups []float64, ms []*measured) []metric {
	r := ms[0].res
	walls := perPass(ms, func(m *measured) float64 { return m.res.wall.Seconds() })
	wall := undisturbed(ms, 0, len(r.opSec))
	// Host time only. grid_served simulates in its cold run alone.
	simulating := wall
	if r.coldOps != 0 {
		simulating = undisturbed(ms, 0, r.coldOps)
	}
	return []metric{
		{Name: "setup_s", Unit: "s", Value: slices.Min(setups), N: len(setups), Samples: setups},
		{Name: "wall_s", Unit: "s", Value: wall, N: len(ms), Samples: walls},
		{Name: "guest_mips", Unit: "Minst/s", Value: float64(r.guestInsts) / 1e6 / simulating, N: len(ms)},
		medianOf("alloc_mb", "MB", perPass(ms, func(m *measured) float64 { return float64(m.allocBytes) / mb })),
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latency reports the median of per-operation latencies and the
// highest tail percentile the sample count supports (0 when even p90
// has fewer than ten samples beyond it).
func latency(p50name, tailName string, ms []float64) []metric {
	out := []metric{{Name: p50name, Unit: "ms", Value: median(ms), N: len(ms)}}
	if tailName != "" {
		tail := metric{Name: tailName, Unit: "ms", N: len(ms)}
		// The names say p95: that is what the full size supports.
		if p, ok := highestPercentile(len(ms)); ok && p >= 95 {
			tail.Value = percentile(ms, 95)
		}
		out = append(out, tail)
	}
	return out
}

// fromPasses gives the per-layer metrics that need no spans: the exact
// counts of a pass, and what the rows and reports of a pass carry.
// They are taken from the untraced passes, and every pass repeats the
// counts exactly, so the first pass's are reported.
func fromPasses(ms []*measured) []metric {
	r := ms[0].res
	c := &r.counts
	guest := float64(c.dynIM + c.dynBBM + c.dynSBM)
	out := []metric{
		single("tol.dyn_im", "count", float64(c.dynIM)),
		single("tol.dyn_bbm", "count", float64(c.dynBBM)),
		single("tol.dyn_sbm", "count", float64(c.dynSBM)),
		single("tol.bb_translated", "count", float64(c.bbTranslated)),
		single("tol.sb_created", "count", float64(c.sbCreated)),
		single("tol.evictions", "count", float64(c.evictions)),
		single("tol.retranslations", "count", float64(c.retrans)),
		single("tol.cosim_checks", "count", float64(c.cosimChecks)),
		single("tol.stream_host_insts", "count", float64(c.streamHostInsts)),
		single("tol.sbm_dyn_share", "ratio", ratio(float64(c.dynSBM), guest)),
		single("tol.retranslation_ratio", "ratio", ratio(float64(c.retrans), float64(c.bbTranslated+c.sbCreated))),
		single("tol.host_per_guest", "ratio", ratio(float64(c.streamHostInsts), guest)),
		single("timing.host_insts", "count", float64(c.timingHostInsts)),
		single("timing.cycles", "count", float64(c.cycles)),

		single("sample.intervals_total", "count", float64(r.intervals)),
		single("sample.intervals_measured", "count", float64(r.measured)),
		single("sample.detail_share", "ratio", ratio(float64(r.measured), float64(r.intervals))),
		single("sample.ci95_rel", "ratio", r.sampleCI95Rel),
		single("sample.err_pct", "%", r.sampleErrPct),

		single("serve.rejects", "count", float64(r.rejects)),
		single("sweep.csv_bytes", "B", float64(r.csvBytes)),
	}
	coldS := undisturbed(ms, 0, r.coldOps)
	out = append(out, single("serve.cold_cells_per_s", "1/s", ratio(float64(r.coldOps), coldS)))
	var cold, memo, stored []float64
	for _, m := range ms {
		cold = append(cold, m.res.coldMs...)
		memo = append(memo, m.res.memoMs...)
		stored = append(stored, m.res.storeMs...)
	}
	out = append(out, latency("serve.cold_cell_ms_p50", "", cold)...)
	out = append(out, latency("serve.memo_hit_p50_ms", "serve.memo_hit_p95_ms", memo)...)
	out = append(out, latency("serve.store_hit_p50_ms", "serve.store_hit_p95_ms", stored)...)
	return out
}

// fromSpans gives the per-layer metrics the spans carry, all from the
// fastest traced pass so that they describe one pass and add up, and
// the tracing overhead: the traced passes' undisturbed time over the
// untraced passes' of the same process.
func fromSpans(setup []span, untraced, traced []*measured) (metrics []metric, split map[string]float64) {
	best := fastest(traced)
	sum := func(name string) (float64, int) {
		d, n := total(best.spans, name)
		return d.Seconds(), n
	}
	c := &best.res.counts
	ops := len(best.res.opSec)
	setupBuild, programs := total(setup, spanWorkloadBuild)
	passBuild, _ := sum(spanWorkloadBuild)
	newEngine, engines := total(best.spans, spanTOLNewEngine)
	streamS, _ := sum(spanTOLStream)
	self := selfTime(best.spans)
	simS := self[spanTimingSim].Seconds()
	// The layer split: each span name's self time as a share of the pass.
	split = map[string]float64{}
	for name, d := range self {
		split[name] = d.Seconds() / best.res.wall.Seconds()
	}
	ffS, _ := sum(spanSampleFastForward)
	measureS, _ := sum(spanSampleMeasure)
	tableS, tables := sum(spanSweepTable)
	// HTTP exchanges of every traced pass; a result fetch is a pure hit
	// in every run after the cold one (the sweep.run span's job names
	// the phase).
	var submit, result []float64
	for _, m := range traced {
		phase := map[int]string{}
		for i := range m.spans {
			switch sp := &m.spans[i]; {
			case sp.Name == spanSweepRun:
				phase[sp.ID] = sp.Job
			case sp.Name == spanServeSubmit:
				submit = append(submit, float64(sp.dur())/float64(time.Millisecond))
			case sp.Name == spanServeResult && phase[sp.Parent] != "cold":
				result = append(result, float64(sp.dur())/float64(time.Millisecond))
			}
		}
	}
	out := []metric{
		single("workload.build_s", "s", setupBuild.Seconds()+passBuild),
		single("workload.programs", "count", float64(programs)),
		single("tol.new_engine_us", "us", per(newEngine, engines, time.Microsecond)),
		single("tol.stream_s", "s", streamS),
		single("tol.stream_ns_per_host_inst", "ns", ratio(streamS*1e9, float64(c.streamHostInsts))),
		single("timing.sim_s", "s", simS),
		single("timing.ns_per_host_inst", "ns", ratio(simS*1e9, float64(c.timingHostInsts))),
		single("sample.fastforward_s", "s", ffS),
		single("sample.measure_s", "s", measureS),
		single("sweep.table_ms", "ms", ratio(tableS*1e3, float64(tables))),
		single("proc.trace_overhead_pct", "%", 100*(undisturbed(traced, 0, ops)/undisturbed(untraced, 0, ops)-1)),
	}
	out = append(out, latency("serve.submit_ms_p50", "", submit)...)
	out = append(out, latency("serve.result_hit_ms_p50", "", result)...)
	return out, split
}

// procMetrics are the process-level costs of a pass, and the peak
// resident set of the process so far.
func procMetrics(ms []*measured) []metric {
	return []metric{
		single("proc.peak_rss_mb", "MB", peakRSSMB()),
		medianOf("proc.gc_cycles", "gcs", perPass(ms, func(m *measured) float64 { return float64(m.gcCycles) })),
		medianOf("proc.gc_pause_ms", "ms", perPass(ms, func(m *measured) float64 { return float64(m.gcPauseNs) / 1e6 })),
		medianOf("proc.mallocs", "allocs", perPass(ms, func(m *measured) float64 { return float64(m.mallocs) })),
	}
}
