package main

import (
	"math"
	"sort"
)

// metric is one reported metric: the per-pass (or per-operation)
// values it was reduced from and the reduction itself. N is the number
// of values behind Value.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// median returns the middle of vals (mean of the two middles for an
// even count); 0 for no values.
func median(vals []float64) float64 {
	return percentile(vals, 50)
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between order statistics; 0 for no values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tails are the percentiles highestPercentile picks from, highest
// first, with the share of samples beyond each in parts per thousand
// (kept as integers so that the ten-sample rule is exact).
var tails = []struct {
	p              float64
	beyondPerMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}}

// highestPercentile returns the highest tail percentile that still has
// at least ten of the n samples beyond it, so the reported tail is
// never one or two outliers. ok is false when even p90 has too few.
func highestPercentile(n int) (p float64, ok bool) {
	for _, t := range tails {
		if n*t.beyondPerMille >= 10*1000 {
			return t.p, true
		}
	}
	return 0, false
}

// spread returns the interquartile range of vals as a share of their
// median — the run-to-run spread the comparison rules are stated in.
// Fewer than two values have no spread.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	return (percentile(vals, 75) - percentile(vals, 25)) / math.Abs(m)
}

// medianOf reduces per-pass values to a reported metric.
func medianOf(name, unit string, vals []float64) metric {
	return metric{Name: name, Unit: unit, Value: median(vals), N: len(vals), Samples: vals}
}

// single reports a metric measured once (a count, or one probe).
func single(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, N: 1}
}
