// Command bench is this repository's benchmark: five named workloads,
// end-to-end metrics measured with tracing off, and per-layer metrics
// from a separate traced run that times the calls into each layer's
// exported API from this directory's own files. BENCHMARK.json at the
// repository root names the metrics, their units and bounds; README.md
// here says why each workload and metric was chosen.
//
//	go run ./bench                          every workload, one child process each
//	go run ./bench -workload functional_hot one workload, in this process
//	go run ./bench -trace 1                 per-layer metrics and bench/out/trace-<workload>.json
//	go run ./bench -compare a.json b.json   do two result files agree within the bounds?
//
// Run it from the repository root. The last line of standard output of
// a -workload run is the result object BENCHMARK.json's contract asks
// for. The exit status is 0 when every output was correct, 1 when a
// result was wrong, 2 when the benchmark itself could not run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
)

// resultFile is what -json writes: every workload's result of one
// invocation.
type resultFile struct {
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   bool              `json:"trace"`
	Size    string            `json:"size"`
	Go      string            `json:"go"`
	Results []*workloadResult `json:"results"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "seconds of timed passes per workload")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes bench/out/trace-<workload>.json")
	jsonOut := flag.String("json", "", "also write the results to this file (default bench/out/results[-trace].json)")
	smoke := flag.Bool("smoke", false, "a twentieth of the size and one pass: checks the harness, measures nothing")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	updateGolden := flag.Bool("update-golden", false, "rewrite bench/golden.json from cosim-on runs (a benchmark change, never part of an optimisation)")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, size: fullSize, outDir: filepath.Join("bench", "out")}
	if *smoke {
		rc.size, rc.seconds = smokeSize, 0
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return fatal(err)
	}
	if *updateGolden {
		if err := writeGolden(ctx, filepath.Join("bench", "golden.json"), rc.outDir); err != nil {
			return fatal(err)
		}
		return 0
	}

	file := resultFile{Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Size: rc.size.key, Go: runtime.Version()}
	status, lastLine := 0, ""
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var rec *recorder
		if rc.trace {
			rec = newRecorder()
		}
		res, err := runWorkload(ctx, w, rc, rec)
		if err == nil && rc.trace {
			err = addProbes(ctx, res, rc, rec)
		}
		if err != nil {
			return fatal(err)
		}
		file.Results = append(file.Results, res)
		report(os.Stdout, res)
		if lastLine, err = spec.resultLine(res, rc.trace); err != nil {
			return fatal(err)
		}
		if !res.Correct {
			status = 1
		}
	} else {
		// One child process per workload: no workload inherits another's
		// heap, caches or goroutines.
		for _, w := range workloads {
			res, err := runChild(ctx, w.name, rc.outDir)
			if err != nil {
				return fatal(err)
			}
			file.Results = append(file.Results, res)
			report(os.Stdout, res)
			if !res.Correct {
				status = 1
			}
		}
	}

	path := *jsonOut
	if path == "" && *name == "" {
		path = filepath.Join(rc.outDir, "results.json")
		if rc.trace {
			path = filepath.Join(rc.outDir, "results-trace.json")
		}
	}
	if path != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
		if err != nil {
			return fatal(err)
		}
	}
	if lastLine != "" {
		fmt.Println(lastLine) // the contract's result object is the last line
	}
	return status
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// report prints every metric of one workload as
// "workload metric value unit n" lines, then the verdict.
func report(w *os.File, res *workloadResult) {
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s %d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	names := make([]string, 0, len(res.Split))
	for name := range res.Split {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return res.Split[names[i]] > res.Split[names[j]] })
	for _, name := range names {
		fmt.Fprintf(w, "%s split %s %.1f %% of the pass\n", res.Workload, name, 100*res.Split[name])
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%s ERROR %s\n", res.Workload, e)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%s ops %d ops_failed %d %s\n", res.Workload, res.Attempted, res.Failed, verdict)
}

// runChild re-executes this binary for one workload with the parent's
// flags and reads the workload's result back from a file.
func runChild(ctx context.Context, workload, outDir string) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(outDir, "child-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-workload", workload, "-json", tmp.Name()}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "json" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.CommandContext(ctx, exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run() // status 1 still leaves a result file
	b, rerr := os.ReadFile(tmp.Name())
	var file resultFile
	if rerr == nil {
		rerr = json.Unmarshal(b, &file)
	}
	if rerr != nil || len(file.Results) != 1 {
		return nil, fmt.Errorf("workload %s: child failed (%v): %s", workload, err, stderr.String())
	}
	return file.Results[0], nil
}
