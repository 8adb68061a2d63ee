package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the file is the single list of metric names, units and bounds, so
// the program and the contract cannot drift apart.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exact reports whether a metric counts simulated things and so must
// repeat exactly between two runs of any two correct builds.
func (m *metricSpec) exact() bool { return m.Unit == "count" }

// resultLine renders the contract's result object: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
// A declared metric the run did not measure, or measured in another
// unit, is an error.
func (s *benchSpec) resultLine(res *workloadResult, trace bool) (string, error) {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	have := map[string]metric{}
	for _, m := range res.Metrics {
		have[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, spec := range want {
		m, ok := have[spec.Name]
		if !ok {
			return "", fmt.Errorf("%s: BENCHMARK.json declares %s, the run did not measure it", res.Workload, spec.Name)
		}
		if m.Unit != spec.Unit {
			return "", fmt.Errorf("%s: %s measured in %q, BENCHMARK.json says %q", res.Workload, spec.Name, m.Unit, spec.Unit)
		}
		metrics[spec.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}
