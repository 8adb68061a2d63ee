package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	agree      = "agree"
	disagree   = "DISAGREE"
	unresolved = "unresolved" // the passes of one file spread wider than the bound
	noVerdict  = "-"          // a per-layer timing: it has no bound
)

// verdict compares one metric of two result files. Bounded metrics
// agree when the medians differ by at most the bound; when either
// file's own passes spread wider than the bound, the difference cannot
// be told from noise and the metric is unresolved. Exact metrics
// (counts of simulated things) must be equal.
func verdict(spec *metricSpec, bounded bool, a, b *metric) (rel float64, v string) {
	if a.Value != 0 {
		rel = (b.Value - a.Value) / math.Abs(a.Value)
	} else if b.Value != 0 {
		rel = math.Inf(1)
	}
	switch {
	case spec.exact():
		if a.Value == b.Value {
			return rel, agree
		}
		return rel, disagree
	case !bounded:
		return rel, noVerdict
	case math.Abs(rel) <= spec.Bound:
		return rel, agree
	case math.Max(spread(a.Samples), spread(b.Samples)) > spec.Bound:
		return rel, unresolved
	default:
		return rel, disagree
	}
}

func readResults(path string) (map[string]map[string]*metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string]*metric{}
	for _, r := range f.Results {
		out[r.Workload] = map[string]*metric{}
		for i := range r.Metrics {
			out[r.Workload][r.Metrics[i].Name] = &r.Metrics[i]
		}
	}
	return out, nil
}

// compareFiles prints, per workload and metric the two files share,
// both medians, their relative difference, the bound and the verdict.
// It returns 1 when any metric disagrees, 2 when a file is unreadable.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		return fatal(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fatal(err)
	}
	return compareResults(w, spec, a, b)
}

func compareResults(w io.Writer, spec *benchSpec, a, b map[string]map[string]*metric) int {
	status := 0
	fmt.Fprintln(w, "workload metric a b rel_diff bound verdict")
	for _, wl := range spec.Workloads {
		row := func(m *metricSpec, bounded bool) {
			sa, sb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if sa == nil || sb == nil {
				return
			}
			rel, v := verdict(m, bounded, sa, sb)
			bound := "-"
			if bounded || m.exact() {
				bound = fmt.Sprintf("%g", m.Bound)
			}
			fmt.Fprintf(w, "%s %s %.6g %.6g %+.2f%% %s %s\n", wl.Name, m.Name, sa.Value, sb.Value, 100*rel, bound, v)
			if v == disagree {
				status = 1
			}
		}
		for i := range spec.EndToEnd {
			row(&spec.EndToEnd[i], true)
		}
		for i := range spec.PerLayer {
			row(&spec.PerLayer[i], false)
		}
	}
	return status
}
