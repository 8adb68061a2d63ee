package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/workload"
)

// runCmd drives the command through its run seam.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRunGolden pins stdout byte for byte against the commit before
// the cmds moved behind internal/cli: the table and CSV verbatim under
// testdata/, the ~480 KB -json forms (plain and under a knob-heavy
// configuration) as the SHA-256 of that commit's output.
func TestRunGolden(t *testing.T) {
	base := []string{"-suite", "int", "-scale", "0.1"}
	for _, tc := range []struct {
		name, want string // want is a testdata file or a "sha256:" digest
		args       []string
	}{
		{"table", "int.txt", nil},
		{"csv", "int.csv", []string{"-csv"}},
		{"json", "sha256:7b2501e32631c43ea1b6a00586a145998f20d4320f69b417958ff9224513540d", []string{"-json"}},
		{"json-heavy", "sha256:47d97ee906b9ffdb907f64e172a7a45261cb40be53d5ff43f901d1a7712f3bc0",
			[]string{"-O", "1", "-promote", "adaptive", "-cc-size", "1024", "-cc-policy", "lru-translation", "-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, append(base, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if digest, ok := strings.CutPrefix(tc.want, "sha256:"); ok {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(stdout))); got != digest {
					t.Errorf("stdout digest %s, want %s", got, digest)
				}
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.want))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from testdata/%s:\n%s", tc.want, stdout)
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write gzipped pprof
// profiles and leave stdout byte-identical to the golden.
func TestProfileFlags(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "int.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	code, stdout, stderr := runCmd(t, "-suite", "int", "-scale", "0.1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 || stdout != string(want) {
		t.Errorf("exit %d (%s), stdout differs from testdata/int.txt:\n%s", code, stderr, stdout)
	}
	for _, path := range []string{cpu, mem} {
		if b, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, error %v; want a gzipped profile", filepath.Base(path), len(b), err)
		}
	}
}

// TestSuiteSelectsWithinISACatalog: -suite filters the catalog of the
// -isa frontend, so an rv32 suite run covers the ported members instead
// of dying on the first unported one.
func TestSuiteSelectsWithinISACatalog(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-isa", "rv32", "-suite", "int", "-scale", "0.1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n")[1:] {
		got = append(got, strings.SplitN(line, ",", 2)[0])
	}
	var want []string
	for _, s := range workload.RV32Catalog() {
		if s.Suite == workload.SPECInt {
			want = append(want, s.Name)
		}
	}
	if len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("rows %v, want the rv32 catalog's int members %v", got, want)
	}
}

// TestUsageErrors: a flag the selection ignores and an unresolvable
// selection are exit 2 with a one-line reason, before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-suite", "int", "-bench", "429.mcf"},
		{"-suite", "nope"},
		{"-bench", "no.such.benchmark"},
		{"-mode", "bogus"},
		{"-isa", "rv32", "-bench", "403.gcc"},
		{"-bench", "429.mcf", "-workload", "429.mcf"},
		{"-bench", "429.mcf", "-scale", "NaN"},
	} {
		code, stdout, stderr := runCmd(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
		if !strings.HasPrefix(stderr, "darco-suite: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr is not a one-line reason: %q", args, stderr)
		}
	}
}

// TestFailingWorkloadDoesNotStopTheRest: one job failing at run time
// (an x86 trace under an rv32 pin) still leaves the other's row — and
// both records under -json — on stdout, a summary on stderr, exit 1.
func TestFailingWorkloadDoesNotStopTheRest(t *testing.T) {
	p, err := workload.Open("462.libquantum")
	if err == nil {
		p, err = workload.ScaleProgram(p, 0.1)
	}
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "x86.trace.json")
	if err := workload.RecordTrace(trace, p); err != nil {
		t.Fatal(err)
	}
	args := []string{"-isa", "rv32", "-bench", "998.specrand", "-workload", "trace:" + trace}

	code, stdout, stderr := runCmd(t, append(args, "-csv")...)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr)
	}
	if rows := strings.Split(strings.TrimSpace(stdout), "\n"); len(rows) != 2 || !strings.HasPrefix(rows[1], "998.specrand,") {
		t.Errorf("CSV does not hold exactly the surviving row:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 of 2 benchmarks failed") || !strings.Contains(stderr, "462.libquantum") {
		t.Errorf("stderr does not summarise the failure: %q", stderr)
	}

	code, stdout, _ = runCmd(t, append(args, "-json")...)
	recs, err := darco.DecodeRecords(strings.NewReader(stdout))
	if code != 1 || err != nil || len(recs) != 2 {
		t.Fatalf("-json: exit %d, %d records, %v; want exit 1 with both records", code, len(recs), err)
	}
	if recs[0].Error != "" || recs[0].Result == nil || recs[1].Error == "" {
		t.Errorf("-json records: first %q (result %v), second %q; want success then failure",
			recs[0].Error, recs[0].Result != nil, recs[1].Error)
	}
}
