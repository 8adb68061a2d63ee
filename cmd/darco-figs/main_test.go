package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRunGolden drives the command through its run seam. The golden
// files under testdata/ are the stdout of the commit before figures
// became one data table (PR 13), so a row that fails here means a
// figure's bytes changed.
func TestRunGolden(t *testing.T) {
	heavy := []string{"-O", "3", "-promote", "adaptive", "-cc-size", "1024", "-cc-policy", "lru-translation"}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.txt", []string{"-scale", "0.1"}},
		{"all.csv", []string{"-scale", "0.1", "-csv"}},
		{"heavy.txt", append([]string{"-scale", "0.1"}, heavy...)},
		{"heavy.csv", append([]string{"-scale", "0.1", "-csv"}, heavy...)},
		{"cc.txt", []string{"-fig", "cc", "-scale", "0.1", "-benchmarks", "006.jpg2000dec,429.mcf"}},
		{"phase.txt", []string{"-fig", "phase", "-scale", "0.1"}},
		{"rv32.txt", []string{"-isa", "rv32", "-scale", "0.1", "-benchmarks", "429.mcf,401.bzip2,998.specrand"}},
		// No outlier in the selection: only the suite AVG row remains.
		{"fig9.txt", []string{"-fig", "9", "-scale", "0.1", "-benchmarks", "429.mcf"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), append([]string{"-q"}, tc.args...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from testdata/%s:\n%s", tc.golden, stdout.String())
			}
		})
	}
}

// TestRunRejectsIgnoredFlags: a flag the selected path would silently
// ignore, or a figure that does not exist, is a usage error with a
// one-line reason — not an empty success.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "12"},
		{"-grid", "x.json", "-from", "y.json"},
		{"-grid", "x.json", "-fig", "6"},
		{"-grid", "x.json", "-benchmarks", "429.mcf"},
		{"-fig", "sample", "-server", "http://127.0.0.1:1"},
		{"-fig", "sample", "-store", t.TempDir()},
		{"-fig", "6", "-phases", "3"},
		{"-phase-cap", "1024"},
		{"-fig", "cc", "-cc-size", "512"},
		{"-fig", "6", "-shard", "0/2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "darco-figs: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr is not a one-line reason: %q", args, msg)
		}
	}
}

// TestRunRV32DefaultCatalog: without -benchmarks, an -isa rv32 run
// covers the RV32I starter catalog instead of dying on the first x86
// catalog entry.
func TestRunRV32DefaultCatalog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-q", "-isa", "rv32", "-scale", "0.1", "-fig", "6", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	rows := map[string]int{}
	for _, l := range lines {
		rows[strings.SplitN(l, ",", 2)[0]]++
	}
	suites := map[string]bool{}
	for _, s := range workload.RV32Catalog() {
		if rows[s.Name] != 1 {
			t.Errorf("benchmark %s has %d rows, want 1", s.Name, rows[s.Name])
		}
		suites[s.Suite.String()] = true
	}
	for su := range suites {
		if rows["AVG "+su] != 1 {
			t.Errorf("suite %s has %d AVG rows, want 1", su, rows["AVG "+su])
		}
	}
}

// TestGridResumesFromStore runs the smoke grid twice against one
// -store: the first run simulates every cell and reproduces the CSV of
// the commit before the cmds moved behind internal/cli
// (testdata/grid-smoke.csv); the second simulates nothing — every
// progress line is "cached ..." — and prints the same bytes.
func TestGridResumesFromStore(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "grid-smoke.csv"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-grid", "../../examples/grids/smoke.json", "-store", t.TempDir(), "-csv"}
	for _, progress := range []string{"run ", "cached "} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%q run: stdout differs from testdata/grid-smoke.csv:\n%s", progress, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		for _, line := range lines {
			if !strings.HasPrefix(line, progress) {
				t.Errorf("progress line %q, want only %q lines", line, progress)
			}
		}
		if cells := strings.Count(string(want), ",SPEC-INT,"); len(lines) != cells {
			t.Errorf("%d %q lines for %d cells", len(lines), progress, cells)
		}
	}
}

// TestGridISAAxis: one benchmark name runs under both frontends as two
// cells of a grid with an ISA axis.
func TestGridISAAxis(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-q", "-grid", "../../examples/grids/cross-isa.json", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, isa := range []string{",x86,", ",rv32,"} {
		if !strings.Contains(stdout.String(), isa) {
			t.Errorf("no %s row in:\n%s", isa, stdout.String())
		}
	}
}
