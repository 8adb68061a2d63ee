package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/darco"
)

// runCmd drives the command through its run seam.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

// mustRun is runCmd for invocations that have to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("darco %v: exit %d: %s", args, code, stderr)
	}
	return stdout
}

// TestRunGolden pins stdout byte for byte. The files under testdata/
// are the stdout of the commit before the cmds moved behind
// internal/cli, so a row that fails here means a report's bytes changed.
func TestRunGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"bench.txt":        {"-bench", "462.libquantum", "-scale", "0.25"},
		"bench.json":       {"-bench", "462.libquantum", "-scale", "0.25", "-json"},
		"print-config.txt": {"-print-config"},
		"list.txt":         {"-list"},
	} {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := mustRun(t, args...); got != string(want) {
				t.Errorf("stdout differs from testdata/%s:\n%s", golden, got)
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write gzipped pprof
// profiles and leave stdout byte-identical to the golden.
func TestProfileFlags(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	if got := mustRun(t, "-bench", "462.libquantum", "-scale", "0.25", "-cpuprofile", cpu, "-memprofile", mem); got != string(want) {
		t.Errorf("stdout differs from testdata/bench.txt:\n%s", got)
	}
	for _, path := range []string{cpu, mem} {
		if b, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, error %v; want a gzipped profile", filepath.Base(path), len(b), err)
		}
	}
}

// records decodes a -json stdout.
func records(t *testing.T, stdout string) []darco.Record {
	t.Helper()
	recs, err := darco.DecodeRecords(strings.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Error != "" || recs[0].Result == nil {
		t.Fatalf("want one successful record, got %+v", recs)
	}
	return recs
}

// TestRecordReplay closes the record/replay loop through the flags: a
// run recorded with -record and replayed with -workload trace: has the
// same summary, because the trace is the guest image the run executed.
func TestRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "libquantum.trace.json")
	direct := records(t, mustRun(t, "-bench", "462.libquantum", "-scale", "0.25", "-record", trace, "-json"))
	replay := records(t, mustRun(t, "-workload", "trace:"+trace, "-json"))
	if direct[0].Benchmark != replay[0].Benchmark {
		t.Errorf("replay ran %q, recorded %q", replay[0].Benchmark, direct[0].Benchmark)
	}
	if !reflect.DeepEqual(direct[0].Summary, replay[0].Summary) {
		t.Errorf("summaries differ:\ndirect %+v\nreplay %+v", direct[0].Summary, replay[0].Summary)
	}
}

// TestSampledRun: under -sample the functional outputs stay exact —
// result.tol and result.final byte-equal to the full run's — and the
// timing estimate carries error bars and lands near the full run.
func TestSampledRun(t *testing.T) {
	full := mustRun(t, "-bench", "462.libquantum", "-scale", "0.25", "-json")
	sampled := mustRun(t, "-bench", "462.libquantum", "-scale", "0.25",
		"-sample", "4", "-interval", "20000", "-warmup", "2000", "-json")

	exact := func(stdout string) (tol, final string) {
		var recs []struct {
			Result struct{ TOL, Final json.RawMessage }
		}
		if err := json.Unmarshal([]byte(stdout), &recs); err != nil || len(recs) != 1 {
			t.Fatalf("decoding -json output: %v (%d records)", err, len(recs))
		}
		return string(recs[0].Result.TOL), string(recs[0].Result.Final)
	}
	fullTOL, fullFinal := exact(full)
	sampledTOL, sampledFinal := exact(sampled)
	if fullTOL == "" || fullTOL != sampledTOL {
		t.Error("result.tol differs between the full and the sampled run")
	}
	if fullFinal == "" || fullFinal != sampledFinal {
		t.Error("result.final differs between the full and the sampled run")
	}

	rep := records(t, sampled)[0].Result.Sampled
	if rep == nil {
		t.Fatal("sampled run carries no sampling report")
	}
	cycleMetrics := 0
	for _, m := range rep.Metrics {
		if m.Name == "cycles" {
			cycleMetrics++
		}
	}
	if cycleMetrics != 1 {
		t.Errorf("%d cycles metrics among %d, want exactly one", cycleMetrics, len(rep.Metrics))
	}
	fullCycles := records(t, full)[0].Summary.Cycles
	if r := float64(rep.EstCycles) / float64(fullCycles); r < 0.7 || r > 1.3 {
		t.Errorf("estimate %d cycles vs %d of the full run (ratio %.2f), want within ±30%%", rep.EstCycles, fullCycles, r)
	}
}

// TestRV32Cosim runs an RV32I workload end to end under co-simulation
// at the highest optimization preset.
func TestRV32Cosim(t *testing.T) {
	out := mustRun(t, "-isa", "rv32", "-bench", "429.mcf", "-scale", "0.25", "-cosim", "-O", "3")
	if !strings.Contains(out, "benchmark        429.mcf") {
		t.Errorf("report does not name the benchmark:\n%s", out)
	}
}

// TestExitCodes: a wrong command line is exit 2 with a one-line
// "darco: ..." reason and nothing on stdout; a run that fails is exit 1.
func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "429.mcf", "-mode", "bogus"},
		{},
		{"-bench", "429.mcf,470.lbm", "-record", filepath.Join(t.TempDir(), "x.trace.json")},
		{"-bench", "no.such.benchmark"},
		{"-bench", "429.mcf", "-O", "0", "-passes", "dce"},
		{"-bench", "429.mcf", "-scale", "-1"},
		{"-bench", "429.mcf", "-workload", "429.mcf"},
		{"-bench", "429.mcf", "-cpuprofile", filepath.Join(t.TempDir(), "no", "cpu.prof")},
		{"-bench", "429.mcf", "-memprofile", filepath.Join(t.TempDir(), "no", "mem.prof")},
	} {
		code, stdout, stderr := runCmd(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
		if !strings.HasPrefix(stderr, "darco: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr is not a one-line reason: %q", args, stderr)
		}
	}
	if code, _, _ := runCmd(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, _ := runCmd(t, "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	code, stdout, stderr := runCmd(t, "-bench", "462.libquantum", "-scale", "0.25", "-timeout", "1ns")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "deadline exceeded") {
		t.Errorf("-timeout 1ns: exit %d, stdout %q, stderr %q; want exit 1 on the deadline", code, stdout, stderr)
	}
}
