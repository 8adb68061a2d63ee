package repro

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/darco"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// figSubset is a representative slice of the catalog: one benchmark
// per characterization regime the paper analyzes.
var figSubset = []string{
	"462.libquantum",    // extreme dynamic/static ratio
	"470.lbm",           // high-ratio FP outlier
	"400.perlbench",     // indirect-branch dominated
	"107.novis_ragdoll", // low ratio, high IM activity
	"007.jpg2000enc",    // ratio close to the promotion threshold
	"000.cjpeg",         // low repetition, sizeable static code
}

// TestSessionConcurrentMatchesSequential runs the figSubset through a
// darco.Session both sequentially (one worker) and concurrently (many
// workers) and requires byte-identical results — the determinism
// guarantee that lets the figure harness parallelize the paper's
// sweeps.
func TestSessionConcurrentMatchesSequential(t *testing.T) {
	jobsFor := func() []darco.Job {
		var jobs []darco.Job
		for _, name := range figSubset {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.Scale(0.25)
			job := darco.Job{
				Name:    spec.Name,
				Variant: "scale=0.25",
				Program: workload.SpecProgram{Spec: spec},
				Config:  darco.DefaultConfig(),
			}
			job.Config.TOL.Cosim = false
			jobs = append(jobs, job)
		}
		return jobs
	}

	marshal := func(res *darco.Result) string {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	seq := darco.NewSession(darco.WithWorkers(1)).RunBatch(context.Background(), jobsFor())
	par := darco.NewSession(darco.WithWorkers(4)).RunBatch(context.Background(), jobsFor())
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: seq err=%v par err=%v", seq[i].Job.Name, seq[i].Err, par[i].Err)
		}
		if marshal(seq[i].Result) != marshal(par[i].Result) {
			t.Errorf("%s: concurrent result differs from sequential", seq[i].Job.Name)
		}
	}
}

// TestFiguresDeterministicAcrossJobs regenerates the figure tables at
// -jobs 1 and -jobs 4 and requires identical rendered output — the
// acceptance property of the parallel experiments runner (including
// the two-leg interaction figures 10/11).
func TestFiguresDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the figure subset twice")
	}
	render := func(jobs int) []string {
		opts := experiments.DefaultOptions()
		opts.Scale = 0.25
		opts.Benchmarks = figSubset
		opts.Config.TOL.Cosim = false
		opts.Jobs = jobs
		r, err := experiments.NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, id := range experiments.FigureIDs() {
			tables, err := r.Figure(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, tb := range tables {
				out = append(out, tb.String())
			}
		}
		return out
	}

	one := render(1)
	four := render(4)
	if len(one) != len(four) {
		t.Fatalf("table counts differ: %d vs %d", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("table %d differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s",
				i, one[i], four[i])
		}
	}
}
