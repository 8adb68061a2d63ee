package experiments

import (
	"strconv"
	"testing"

	"repro/internal/darco"
	"repro/internal/tol"
	"repro/internal/workload"
)

// TestFigPhaseSweepShape runs the phase-behaviour sweep over a small
// member pool and checks its acceptance shape: one row group per
// phase count (baseline first, then every registered policy), a
// baseline slowdown of exactly 1.000 per group, and real eviction
// pressure at the longest composite when the capacity sits below its
// multi-phase footprint.
func TestFigPhaseSweepShape(t *testing.T) {
	pool := []string{"401.bzip2", "462.libquantum", "429.mcf"}
	opts := DefaultOptions()
	opts.Scale = 0.25
	opts.Benchmarks = pool
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Derive a capacity below the full composite's unbounded footprint
	// so the last group is guaranteed to run under pressure.
	full, err := workload.Open("phased:" + pool[0] + "+" + pool[1] + "+" + pool[2])
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := workload.ScaleProgram(full, opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	probe := darco.NewSession()
	base, err := probe.Run(r.ctx(), darco.JobForProgram(scaled, opts.Scale))
	if err != nil {
		t.Fatal(err)
	}
	tight := base.CodeCacheInsts * 2 / 3
	if tight < tol.MinCacheCapacityInsts {
		tight = tol.MinCacheCapacityInsts
	}

	tab, err := r.FigPhase(len(pool), tight)
	if err != nil {
		t.Fatal(err)
	}
	policies := tol.RegisteredEvictionPolicies()
	group := 1 + len(policies)
	if want := len(pool) * group; len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	for n := 0; n < len(pool); n++ {
		baseRow := tab.Rows[n*group]
		if baseRow[0] != strconv.Itoa(n+1) || baseRow[2] != "unbounded" {
			t.Fatalf("group %d baseline row = %v", n+1, baseRow)
		}
		if baseRow[4] != "1.000" {
			t.Fatalf("baseline slowdown = %q", baseRow[4])
		}
		for i, pol := range policies {
			row := tab.Rows[n*group+1+i]
			if row[0] != strconv.Itoa(n+1) || row[2] != pol {
				t.Fatalf("group %d row %d = %v, want policy %s", n+1, i, row, pol)
			}
		}
	}
	// The longest composite must show eviction activity under at least
	// one policy at the tight bound.
	sawEvictions := false
	for i := (len(pool)-1)*group + 1; i < len(pool)*group; i++ {
		ev, err := strconv.Atoi(tab.Rows[i][5])
		if err != nil {
			t.Fatalf("evictions cell %q: %v", tab.Rows[i][5], err)
		}
		if ev > 0 {
			sawEvictions = true
		}
	}
	if !sawEvictions {
		t.Errorf("no evictions at capacity %d despite footprint %d", tight, base.CodeCacheInsts)
	}
}

// TestRunnerOpensReferences checks that Options.Benchmarks accepts
// full workload references, not only catalog names.
func TestRunnerOpensReferences(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Benchmarks = []string{"synthetic:998.specrand", "phased:998.specrand+999.specrand"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	progs := r.Programs()
	if len(progs) != 2 {
		t.Fatalf("programs = %d", len(progs))
	}
	if progs[1].Meta().Source != "phased" || progs[1].Meta().Phases != 2 {
		t.Fatalf("second program meta = %+v", progs[1].Meta())
	}
	// A figure over the mixed set still renders: the phased program
	// joins no suite average but gets its own row.
	tab := mustFigure(t, r, "6")[0]
	found := false
	for _, row := range tab.Rows {
		if row[0] == "998.specrand+999.specrand" {
			found = true
		}
	}
	if !found {
		t.Error("phased program missing from Fig6 rows")
	}
}

// TestRunnerRejectsDuplicateNames: every runner lookup is keyed by
// program name, so a selection with two same-named programs must fail
// fast instead of silently showing one program's results twice.
func TestRunnerRejectsDuplicateNames(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"401.bzip2", "synthetic:401.bzip2"}
	if _, err := NewRunner(opts); err == nil {
		t.Fatal("duplicate-named selection accepted")
	}
}
