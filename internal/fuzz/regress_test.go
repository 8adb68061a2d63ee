package fuzz

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/darco"
	"repro/internal/workload"
)

// TestRegressionCorpusReplaysClean replays every committed regression
// artifact under testdata/regressions — each one a minimized reproducer
// of a divergence found by differential fuzzing — through the full
// smoke matrix with co-simulation enabled. A fixed translator must stay
// fixed: any divergence or error here is a reintroduced bug.
//
// The corpus is committed, so an empty glob is a failure (a moved
// directory would otherwise silently skip the whole suite).
func TestRegressionCorpusReplaysClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "regressions", "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed regression artifacts found under testdata/regressions")
	}
	ctx := context.Background()
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			tr, err := workload.LoadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			prog := mustBuild(t, tr.Program())
			for _, cell := range SmokeMatrix() {
				cfg, err := new(Oracle).config(cell)
				if err != nil {
					t.Fatal(err)
				}
				res, err := darco.Run(ctx, prog, darco.WithConfig(cfg))
				if err != nil {
					if div, ok := AsDivergence(err); ok {
						t.Errorf("%s: regressed:\n%s", cell.Name(), div.Report())
						continue
					}
					t.Errorf("%s: %v", cell.Name(), err)
					continue
				}
				if res.GuestDyn() == 0 {
					t.Errorf("%s: replay executed nothing", cell.Name())
				}
			}
		})
	}
}
