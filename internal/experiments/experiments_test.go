package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/stats"
)

// testRunner builds a small-session runner over three contrasting
// benchmarks at reduced scale, with cosim on (every run verified).
func testRunner(t *testing.T) *Runner {
	t.Helper()
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"462.libquantum", "400.perlbench", "107.novis_ragdoll"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustFigure regenerates one paper figure, failing the test on error.
func mustFigure(t *testing.T, r *Runner, id string) []*stats.Table {
	t.Helper()
	tabs, err := r.Figure(id)
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

func TestFig5Shapes(t *testing.T) {
	r := testRunner(t)
	tabs := mustFigure(t, r, "5")
	ta, tb := tabs[0], tabs[1]
	// 3 benchmark rows + suite averages.
	if len(ta.Rows) < 3 || len(tb.Rows) < 3 {
		t.Fatalf("rows: %d/%d", len(ta.Rows), len(tb.Rows))
	}
	// libquantum: dynamic SBM share must dominate (first row, SBM col 4).
	if !strings.HasPrefix(tb.Rows[0][0], "462") {
		t.Fatalf("row order: %v", tb.Rows[0])
	}
	var sbm float64
	if _, err := fscan(tb.Rows[0][4], &sbm); err != nil {
		t.Fatal(err)
	}
	if sbm < 90 {
		t.Fatalf("libquantum dynamic SBM = %.1f%%, want > 90%%", sbm)
	}
}

func TestFig6OverheadOrdering(t *testing.T) {
	r := testRunner(t)
	tab := mustFigure(t, r, "6")[0]
	ov := map[string]float64{}
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[2], &v); err != nil {
			t.Fatal(err)
		}
		ov[row[0]] = v
	}
	// The paper's central anti-correlation: the extreme-ratio benchmark
	// has far less overhead than the low-ratio one.
	if ov["462.libquantum"] >= ov["107.novis_ragdoll"] {
		t.Fatalf("overhead ordering broken: libquantum %.1f >= ragdoll %.1f",
			ov["462.libquantum"], ov["107.novis_ragdoll"])
	}
	if ov["462.libquantum"] > 15 {
		t.Fatalf("libquantum overhead = %.1f%%, want small", ov["462.libquantum"])
	}
}

func TestFig7ComponentsPresent(t *testing.T) {
	r := testRunner(t)
	tab := mustFigure(t, r, "7")[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// perlbench's indirect-branch count (last column) must dwarf
	// libquantum's.
	var perl, libq float64
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[8], &v); err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(row[0], "400"):
			perl = v
		case strings.HasPrefix(row[0], "462"):
			libq = v
		}
	}
	if perl < 100*libq && perl < 1000 {
		t.Fatalf("indirect counts: perlbench %v vs libquantum %v", perl, libq)
	}
}

// TestFig7bSumsToAggregate: the per-pass SBM split of Figure 7b must
// sum (pass columns + sbm-other) to the aggregate SBM component time
// of Figure 7, per benchmark — the defining property of the per-pass
// attribution.
func TestFig7bSumsToAggregate(t *testing.T) {
	r := testRunner(t)
	t7, t7b := mustFigure(t, r, "7")[0], mustFigure(t, r, "7b")[0]
	if len(t7b.Rows) != len(t7.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(t7b.Rows), len(t7.Rows))
	}
	// Fig7b columns: benchmark, suite, <passes...>, sbm-other, eliminated.
	nPass := len(t7b.Headers) - 4
	if nPass < 1 {
		t.Fatalf("headers: %v", t7b.Headers)
	}
	for i, row := range t7b.Rows {
		var sum float64
		for c := 2; c < 2+nPass+1; c++ { // passes + sbm-other
			var v float64
			if _, err := fscan(row[c], &v); err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		var sbm float64
		if _, err := fscan(t7.Rows[i][5], &sbm); err != nil {
			t.Fatal(err)
		}
		if diff := sum - sbm; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: per-pass sum %.3f%% != aggregate SBM %.2f%%", row[0], sum, sbm)
		}
	}
}

func TestFig8IPCVariance(t *testing.T) {
	r := testRunner(t)
	tab := mustFigure(t, r, "8")[0]
	lo, hi := 1e9, 0.0
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[2], &v); err != nil {
			t.Fatal(err)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// The paper's headline: TOL IPC varies across applications.
	if hi-lo < 0.05 {
		t.Fatalf("TOL IPC range [%.2f, %.2f] implausibly flat", lo, hi)
	}
	if lo <= 0 || hi > 2 {
		t.Fatalf("TOL IPC out of range: [%.2f, %.2f]", lo, hi)
	}
}

func TestFig9SumsToTotal(t *testing.T) {
	r := testRunner(t)
	tab := mustFigure(t, r, "9")[0]
	for _, row := range tab.Rows {
		sum := 0.0
		for _, cell := range row[1:] {
			var v float64
			if _, err := fscan(cell, &v); err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum < 95 || sum > 101 {
			t.Fatalf("row %s sums to %.1f%%", row[0], sum)
		}
	}
}

func TestFig10And11Run(t *testing.T) {
	if testing.Short() {
		t.Skip("interaction runs are slow")
	}
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"400.perlbench", "470.lbm"}
	opts.Config = darco.DefaultConfig()
	opts.Config.TOL.Cosim = false
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	t10 := mustFigure(t, r, "10")[0]
	if len(t10.Rows) < 2 {
		t.Fatalf("fig10 rows = %d", len(t10.Rows))
	}
	t11 := mustFigure(t, r, "11")
	ta, tb := t11[0], t11[1]
	if len(ta.Rows) != len(tb.Rows) {
		t.Fatal("fig11 row mismatch")
	}
}

// startedByMode counts the runner's "run <benchmark> <mode>" log lines —
// one per darco.EventStarted, i.e. per real simulation — by mode.
func startedByMode(log *bytes.Buffer) map[string]int {
	n := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "run" {
			n[f[2]]++
		}
	}
	return n
}

// TestFiguresShareRuns pins the memoization every figure inherits from
// being a mode-axis grid on one session: a later figure simulates only
// the (benchmark, mode) cells no earlier figure ran, and a runner
// preloaded with shared and split records simulates only the tol-only
// runs for the whole figure set (48 of 144 at the full catalog).
func TestFiguresShareRuns(t *testing.T) {
	var log bytes.Buffer
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Benchmarks = []string{"470.lbm", "429.mcf", "462.libquantum"}
	opts.Config = darco.DefaultConfig()
	opts.Config.TOL.Cosim = false
	opts.Log = &log
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(opts.Benchmarks)
	mustFigure(t, r, "6")
	if got := startedByMode(&log); got["shared"] != n || len(got) != 1 {
		t.Fatalf("Figure 6 started %v, want %d shared runs", got, n)
	}
	log.Reset()
	mustFigure(t, r, "10")
	if got := startedByMode(&log); got["split"] != n || len(got) != 1 {
		t.Fatalf("Figure 10 after 6 started %v, want only the %d split legs", got, n)
	}

	// Hand the shared and split results to a fresh runner as records.
	all, err := r.results(interaction)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range r.progs {
		for _, m := range interaction {
			opts.Preload = append(opts.Preload, darco.NewRecord(p.Name(), p.Meta().Suite, opts.Scale, m, all[i][m], nil))
		}
	}
	log.Reset()
	if r, err = NewRunner(opts); err != nil {
		t.Fatal(err)
	}
	for _, id := range FigureIDs() {
		mustFigure(t, r, id)
	}
	if got := startedByMode(&log); got["tol-only"] != n || len(got) != 1 {
		t.Fatalf("preloaded figure set started %v, want only the %d tol-only runs", got, n)
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"does-not-exist"}
	if _, err := NewRunner(opts); err == nil {
		t.Fatal("expected error")
	}
}

// fscan parses one float from a table cell.
func fscan(cell string, v *float64) (int, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		*v = 0
		return 0, nil
	}
	return fmt.Sscan(cell, v)
}
