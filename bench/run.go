package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // how long the timed passes of one workload measure
	trace   bool
	size    sizing
	outDir  string
}

// workloadResult is what one workload's run reports.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	// Split is the layer split of the fastest traced pass: each span
	// name's self time as a share of the pass's wall-clock.
	Split map[string]float64 `json:"split,omitempty"`
}

// measured is one timed pass with the process counters read around it.
type measured struct {
	res        *passResult
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	spans      []span // traced passes only
}

// Set-up is repeated for setup_s and the fastest reported; the last
// repetition's inputs are used. Some set-ups take under a millisecond,
// so it repeats until setupSeconds have been spent, within these counts.
const (
	setupMinReps = 3
	setupMaxReps = 256
	setupSeconds = 1.0
)

// fail records what was wrong with a run; the first few are reported.
func (r *workloadResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs one workload in this process: set-up, one discarded
// warm-up pass, then timed passes until rc.seconds have been measured.
// With a recorder (a traced run) the timed passes are split between
// untraced and traced ones.
func runWorkload(ctx context.Context, w workloadDef, rc runConfig, rec *recorder) (*workloadResult, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	env := &env{seed: rc.seed, size: rc.size, outDir: rc.outDir, golden: g}
	minReps, maxReps := setupMinReps, setupMaxReps
	if rec != nil {
		maxReps = 1 // setup_s is an end-to-end metric; the traced run only needs the spans
	}
	if rc.seconds == 0 {
		maxReps = 1
	}

	var pass passFunc
	var setups []float64
	for spent := 0.0; len(setups) < maxReps && (len(setups) < minReps || spent < setupSeconds); {
		runtime.GC()
		start := time.Now()
		if pass, err = w.setup(env, rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
	}
	setupSpans := rec.since(0)

	out := &workloadResult{Workload: w.name, Correct: true}

	// Warm-up: discarded for timing, kept as the reference the timed
	// passes must reproduce. Where the timed passes run cosim off, this
	// one runs it on.
	ref := pass(ctx, nil, w.referenceWarmup)
	for _, e := range ref.errs {
		out.fail("warm-up: %s", e)
	}
	want := map[string]string{}
	digestsOK := ref.failed == 0
	for group, lines := range ref.groups {
		want[group] = digest(lines)
		key := rc.size.key + "/" + group
		switch committed, ok := g.Digests[key]; {
		case ok && committed != want[group]:
			digestsOK = false
			out.fail("stat digest of %s is %s, golden.json has %s", key, want[group], committed)
		case !ok && !strings.Contains(group, ".fuzz."):
			digestsOK = false
			out.fail("golden.json has no digest for %s", key)
		}
	}

	one := func(rec *recorder) *measured {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mark := rec.mark()
		res := pass(ctx, rec, false)
		runtime.ReadMemStats(&after)
		m := &measured{
			res:        res,
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			mallocs:    after.Mallocs - before.Mallocs,
			gcCycles:   after.NumGC - before.NumGC,
			gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
			spans:      rec.since(mark),
		}
		for _, e := range res.errs {
			out.fail("%s", e)
		}
		for group, lines := range res.groups {
			if d := digest(lines); d != want[group] {
				digestsOK = false
				out.fail("stat digest of %s is %s in a timed pass, %s in the warm-up", group, d, want[group])
			}
		}
		if len(res.groups) != len(want) {
			digestsOK = false
			out.fail("timed pass produced %d digest groups, warm-up %d", len(res.groups), len(want))
		}
		out.Attempted += res.ops
		out.Failed += res.failed
		return m
	}
	timed := func(rec *recorder, seconds float64) []*measured {
		var ms []*measured
		var spent time.Duration
		for len(ms) == 0 || spent.Seconds() < seconds {
			m := one(rec)
			ms = append(ms, m)
			spent += m.res.wall
		}
		return ms
	}

	var untraced, traced []*measured
	if rec != nil {
		untraced = timed(nil, rc.seconds/2)
		traced = timed(rec, rc.seconds/2)
	} else {
		untraced = timed(nil, rc.seconds)
	}
	out.Metrics = append(endToEnd(setups, untraced), fromPasses(untraced)...)
	out.Metrics = append(out.Metrics, procMetrics(append(untraced, traced...))...)
	if rec != nil {
		spanMetrics, split := fromSpans(setupSpans, untraced, traced)
		out.Metrics, out.Split = append(out.Metrics, spanMetrics...), split
		if w.name == "sampled_long" {
			if err := verifyFullCycles(ctx, env); err != nil {
				digestsOK = false
				out.fail("%v", err)
			}
		}
	}
	if !digestsOK {
		out.Failed = out.Attempted // a mismatched workload fails all its operations
	}
	if out.Failed != 0 {
		out.Correct = false
	}
	return out, nil
}

// addProbes ends a traced run: the probes' metrics join the result and
// every span recorded goes to outDir/trace-<workload>.json.
func addProbes(ctx context.Context, res *workloadResult, rc runConfig, rec *recorder) error {
	probes, errs := runProbes(ctx, rec, probeScale(rc.size), rc.outDir)
	for _, e := range errs {
		res.fail("probe: %v", e)
	}
	res.Metrics = append(res.Metrics, probes...)
	return rec.write(filepath.Join(rc.outDir, "trace-"+res.Workload+".json"))
}

// probeScale shrinks the probes with the workloads.
func probeScale(s sizing) float64 {
	if s.key == smokeSize.key {
		return 0.05
	}
	return 1
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
