package fuzz

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/tol"
	"repro/internal/workload"
)

// defaultMinimizeAttempts bounds the shrink search. Each attempt is
// one (candidate, cell) run; the greedy loop converges long before
// this on any realistic finding.
const defaultMinimizeAttempts = 400

// MinimizeResult is the outcome of shrinking one finding.
type MinimizeResult struct {
	// Spec is the smallest spec that still reproduces the divergence.
	Spec workload.Spec `json:"spec"`
	// Div is the divergence the minimized spec produces.
	Div *tol.DivergenceError `json:"divergence"`
	// Cell is the configuration the divergence reproduces under.
	Cell Cell `json:"cell"`
	// Steps counts accepted shrinks, Attempts all candidate runs.
	Steps    int `json:"steps"`
	Attempts int `json:"attempts"`
	// Blocks is the minimized spec's workload.Spec.Blocks() — the size
	// metric the acceptance bar (<= 8) is expressed in.
	Blocks int `json:"blocks"`
}

// Minimize greedily shrinks the finding's spec while the divergence
// still reproduces under the finding's cell: at each step the first
// reproducing candidate from workload.Spec.Shrink (ordered most
// aggressive first) is accepted, until no candidate reproduces or the
// attempt budget (defaultMinimizeAttempts if maxAttempts <= 0) runs
// out. Session memoization makes re-visited candidates free.
func (o *Oracle) Minimize(ctx context.Context, f *Finding, maxAttempts int) (*MinimizeResult, error) {
	if f == nil || f.Div == nil {
		return nil, fmt.Errorf("fuzz: nothing to minimize")
	}
	if maxAttempts <= 0 {
		maxAttempts = defaultMinimizeAttempts
	}
	cur, div := f.Spec, f.Div
	res := &MinimizeResult{Cell: f.Cell}
	for {
		progressed := false
		for _, cand := range cur.Shrink() {
			if res.Attempts >= maxAttempts {
				break
			}
			res.Attempts++
			d, err := o.reproduce(ctx, cand, f.Cell)
			if err != nil {
				return nil, err
			}
			if d != nil {
				cur, div = cand, d
				res.Steps++
				progressed = true
				break
			}
		}
		if !progressed || res.Attempts >= maxAttempts {
			break
		}
	}
	res.Spec, res.Div, res.Blocks = cur, div, cur.Blocks()
	return res, nil
}

// reproduce runs spec under cell and returns the divergence if the run
// diverged, nil if it ran clean or failed for an unrelated reason
// (such a candidate is simply not accepted), and an error only for
// context cancellation or a cell whose knobs do not resolve.
func (o *Oracle) reproduce(ctx context.Context, spec workload.Spec, cell Cell) (*tol.DivergenceError, error) {
	job, err := o.job(spec, cell)
	if err != nil {
		return nil, err
	}
	_, err = o.session().Run(ctx, job)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if div, ok := asDivergence(err); ok {
		return div, nil
	}
	return nil, nil
}

// regressionName returns the artifact base name a spec is filed under.
func regressionName(spec *workload.Spec) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, spec.Name)
	return name + ".trace.json"
}

// WriteRegression files the minimized reproducer as a committed
// trace: artifact in dir (conventionally testdata/regressions/ at the
// repository root): the exact guest image the spec builds, recorded in
// the workload trace format so the regression replays byte-identically
// forever, independent of future generator changes. It returns the
// artifact path; regress_test.go replays every artifact in the
// directory through the smoke matrix.
func WriteRegression(dir string, spec workload.Spec) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, regressionName(&spec))
	if err := workload.RecordTrace(path, workload.SpecProgram{Spec: spec, Source: "fuzz"}); err != nil {
		return "", err
	}
	return path, nil
}
