package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, // p90 would leave 9.9 samples beyond it
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := latency("p50", "p95", make([]float64, 150))[1]; got.Value != 0 || got.N != 150 {
		t.Errorf("p95 of 150 samples reported as %+v; want value 0 (too few samples)", got)
	}
}

func TestDigestIgnoresJobOrder(t *testing.T) {
	a := []string{"401.bzip2,10,1", "470.lbm,20,2", "rv32:429.mcf,30,3"}
	b := []string{a[2], a[0], a[1]}
	if digest(a) != digest(b) {
		t.Error("digest depends on the order of the job lines")
	}
	if digest(a) == digest(append([]string{"x"}, a...)) {
		t.Error("digest ignores an extra job line")
	}
	if digest(a) == digest([]string{a[0], a[1], "rv32:429.mcf,30,4"}) {
		t.Error("digest ignores a changed statistic")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "timing.sim", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "tol.stream", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "tol.stream", Start: 20, End: 50},    // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "darco.record", Start: 90, End: 120}, // clipped to its parent
		{ID: 5, Parent: 2, Name: "workload.build", Start: 12, End: 17},
	}
	self := selfTime(spans)
	for name, want := range map[string]time.Duration{
		"timing.sim":     50, // 100 - [10,50] - [90,100]
		"tol.stream":     45, // (20 - 5) + 30
		"darco.record":   30,
		"workload.build": 5,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	if d, n := total(spans, "tol.stream"); d != 50 || n != 2 {
		t.Errorf("total(tol.stream) = %d over %d spans, want 50 over 2", d, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bounded := &metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	exact := &metricSpec{Name: "timing.cycles", Unit: "count", Better: "lower"}
	layer := &metricSpec{Name: "tol.stream_s", Unit: "s", Better: "lower"}
	m := func(vals ...float64) *metric { s := medianOf("m", "s", vals); return &s }
	for _, c := range []struct {
		name    string
		spec    *metricSpec
		bounded bool
		a, b    *metric
		want    string
	}{
		{"within the bound", bounded, true, m(1.00, 1.01, 0.99), m(1.05, 1.06, 1.04), agree},
		{"beyond the bound, steady passes", bounded, true, m(1.00, 1.01, 0.99), m(1.20, 1.21, 1.19), disagree},
		{"faster beyond the bound is a disagreement too", bounded, true, m(1.00, 1.01, 0.99), m(0.80, 0.81, 0.79), disagree},
		{"beyond the bound, passes spread wider than it", bounded, true, m(1.00, 1.01, 0.99), m(0.9, 1.2, 1.5), unresolved},
		{"exact and equal", exact, false, m(12345), m(12345), agree},
		{"exact and off by one", exact, false, m(12345), m(12346), disagree},
		{"per-layer timing has no verdict", layer, false, m(1), m(2), noVerdict},
	} {
		if _, got := verdict(c.spec, c.bounded, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	spec := &benchSpec{EndToEnd: []metricSpec{*bounded}, PerLayer: []metricSpec{*exact}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	file := func(wall, cycles float64) map[string]map[string]*metric {
		return map[string]map[string]*metric{"w": {"wall_s": m(wall, wall), "timing.cycles": m(cycles)}}
	}
	var out bytes.Buffer
	if st := compareResults(&out, spec, file(1, 7), file(1.02, 7)); st != 0 {
		t.Errorf("agreeing files: status %d\n%s", st, out.String())
	}
	out.Reset()
	if st := compareResults(&out, spec, file(1, 7), file(1.02, 8)); st != 1 || !strings.Contains(out.String(), "w timing.cycles 7 8 +14.29% 0 DISAGREE") {
		t.Errorf("a moved count: status %d\n%s", st, out.String())
	}
}

// TestSmoke runs every workload at smoke size, traced, and the probes
// once: the harness end to end, golden digests included, in a few
// seconds.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	ctx := context.Background()
	rc := runConfig{seed: 1, size: smokeSize, outDir: t.TempDir()}
	traced := map[string]map[string]float64{}
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		// A traced run has untraced passes too, so one run gives the
		// end-to-end metrics as well.
		rec := newRecorder()
		res, err := runWorkload(ctx, w, rc, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		line, err := spec.resultLine(res, false)
		if err != nil {
			t.Error(err)
		}
		var parsed struct {
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(line), &parsed); err != nil {
			t.Fatal(err)
		}
		for name, v := range parsed.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v.Value)
			}
		}

		if i == 0 {
			if err := addProbes(ctx, res, rc, rec); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(rc.outDir, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
			if _, err := spec.resultLine(res, true); err != nil {
				t.Error(err)
			}
		}
		if !res.Correct {
			t.Errorf("%s probes: %v", w.name, res.Errors)
		}
		traced[w.name] = map[string]float64{}
		for _, m := range res.Metrics {
			traced[w.name][m.Name] = m.Value
			if !declared[m.Name] {
				t.Errorf("%s measures %s, which BENCHMARK.json does not declare", w.name, m.Name)
			}
		}
	}

	// The reason the workloads exist: each puts its work in another layer.
	if v := traced["functional_hot"]["timing.sim_s"]; v != 0 {
		t.Errorf("functional_hot spent %v s in the timing model, want 0", v)
	}
	if sd := traced["suite_detailed"]; sd["timing.sim_s"] <= 0 || sd["tol.stream_s"] <= 0 {
		t.Errorf("suite_detailed: timing.sim_s %v, tol.stream_s %v; both layers must show", sd["timing.sim_s"], sd["tol.stream_s"])
	}
	hot, churn := traced["functional_hot"]["tol.sbm_dyn_share"], traced["translate_churn"]["tol.sbm_dyn_share"]
	if churn >= hot {
		t.Errorf("tol.sbm_dyn_share: translate_churn %v, functional_hot %v; churn must be lower", churn, hot)
	}
	if traced["translate_churn"]["tol.retranslations"] == 0 {
		t.Error("translate_churn retranslated nothing: its code cache is not under pressure")
	}
	if sl := traced["sampled_long"]; sl["sample.measure_s"] <= 0 || sl["sample.intervals_measured"] == 0 {
		t.Errorf("sampled_long measured no intervals: %v", sl)
	}
	if gs := traced["grid_served"]; gs["serve.memo_hit_p50_ms"] <= 0 || gs["serve.store_hit_p50_ms"] <= 0 || gs["serve.submit_ms_p50"] <= 0 {
		t.Errorf("grid_served: a phase has no latency: %v", gs)
	}
	if left, _ := filepath.Glob(filepath.Join(rc.outDir, "*store-*")); len(left) != 0 {
		t.Errorf("temporary stores left behind: %v", left)
	}
}
