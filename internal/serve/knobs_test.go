package serve

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestKnobsOneSchema gives each knob set the three ways a user can
// spell it — cmd argv through darco.BindFlags, a grid value, a submit
// body — and requires one outcome: the same resolved darco.Config, the
// same memo key, or a rejection from all three.
func TestKnobsOneSchema(t *testing.T) {
	const ref, scale = "429.mcf", 0.05
	rows := []struct {
		name string
		// base is a knob delta over darco.DefaultConfig: the cmd's
		// starting configuration, the grid's base config and the server's.
		base string
		// argv is nil where the flags cannot spell the row (their zero
		// values mean "not given").
		argv   []string
		knobs  string // JSON, both a grid value's keys and a submit body's
		reject bool
	}{
		{name: "defaults", argv: []string{}, knobs: `{"cosim": true}`},
		{name: "O0 with passes", argv: []string{"-O", "0", "-passes", "dce"},
			knobs: `{"cosim": true, "opt_level": 0, "passes": "dce"}`, reject: true},
		{name: "policy without size", argv: []string{"-cc-policy", "flush-all"},
			knobs: `{"cosim": true, "cc_policy": "flush-all"}`, reject: true},
		{name: "sample alone", argv: []string{"-sample", "4"},
			knobs: `{"cosim": true, "sample": {"every": 4}}`},
		{name: "sample plan", argv: []string{"-warmup", "7", "-interval", "30000", "-sample", "2"},
			knobs: `{"cosim": true, "sample": {"every": 2, "interval": 30000, "warmup": 7}}`},
		{name: "explicit warmup 0",
			knobs: `{"sample": {"every": 4, "warmup": 0}}`},
		{name: "explicit unbounded cache", base: `{"cc_size": 512, "cc_policy": "fifo-region"}`,
			knobs: `{"cc_size": 0}`},
		{name: "rv32", argv: []string{"-isa", "rv32", "-cosim=false"},
			knobs: `{"isa": "rv32", "cosim": false}`},
		{name: "flag heavy", argv: []string{"-O", "1", "-promote", "adaptive", "-cc-size", "1024",
			"-cc-policy", "lru-translation", "-cosim=false"},
			knobs: `{"opt_level": 1, "promote": "adaptive", "cc_size": 1024,
				"cc_policy": "lru-translation", "cosim": false}`},
		{name: "passes over preset", argv: []string{"-O", "3", "-passes", "constprop,dce"},
			knobs: `{"cosim": true, "opt_level": 3, "passes": "constprop,dce"}`},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			base := darco.DefaultConfig()
			if row.base != "" {
				var k darco.Knobs
				if err := json.Unmarshal([]byte(row.base), &k); err != nil {
					t.Fatal(err)
				}
				if err := k.Apply(&base); err != nil {
					t.Fatal(err)
				}
			}
			type outcome struct{ cfg, key string }
			ways := map[string]func() (darco.Job, error){
				"grid":   func() (darco.Job, error) { return gridJob(base, ref, scale, row.knobs) },
				"submit": func() (darco.Job, error) { return submitJob(t, base, ref, scale, row.knobs) },
			}
			if row.argv != nil {
				ways["argv"] = func() (darco.Job, error) { return argvJob(base, ref, scale, row.argv) }
			}
			got := map[string]outcome{}
			for way, resolve := range ways {
				job, err := resolve()
				if row.reject {
					if err == nil {
						t.Errorf("%s: accepted, want rejection", way)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", way, err)
				}
				raw, err := json.Marshal(&job.Config)
				if err != nil {
					t.Fatal(err)
				}
				key, err := job.Key()
				if err != nil {
					t.Fatal(err)
				}
				got[way] = outcome{string(raw), key}
			}
			for way, o := range got {
				if o != got["grid"] {
					t.Errorf("%s resolves differently from the grid value:\n%s: %+v\ngrid: %+v", way, way, o, got["grid"])
				}
			}
		})
	}
}

// argvJob resolves the way the cmds do: flags bound over the starting
// configuration, the result validated, the reference redirected by -isa.
func argvJob(base darco.Config, ref string, scale float64, argv []string) (darco.Job, error) {
	fs := flag.NewFlagSet("darco", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	k := darco.BindFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return darco.Job{}, err
	}
	cfg := base
	if err := k.Apply(&cfg); err != nil {
		return darco.Job{}, err
	}
	if err := cfg.Validate(); err != nil {
		return darco.Job{}, err
	}
	job, err := darco.WithWorkload(workload.RefForISA(ref, k.ISA), scale)
	job.Config = cfg
	return job, err
}

// gridJob decodes a one-cell grid whose only axis value carries the
// knobs and maps the cell the way sweep.RunOn does.
func gridJob(base darco.Config, ref string, scale float64, knobs string) (darco.Job, error) {
	value := `{"name": "v", ` + strings.TrimPrefix(strings.TrimSpace(knobs), "{")
	g, err := sweep.DecodeGrid(strings.NewReader(fmt.Sprintf(
		`{"workloads": [%q], "scale": %g, "axes": [{"axis": "a", "values": [%s]}]}`, ref, scale, value)))
	if err != nil {
		return darco.Job{}, err
	}
	k := &g.Axes[0].Values[0].Knobs
	isa := base.ISA
	if k.ISA != "" {
		isa = k.ISA
	}
	ref = workload.RefForISA(ref, isa)
	p, err := workload.Open(ref)
	if err != nil {
		return darco.Job{}, err
	}
	if p, err = workload.ScaleProgram(p, g.Scale); err != nil {
		return darco.Job{}, err
	}
	return sweep.JobFor(p, ref, g.Scale, base, k)
}

// submitJob posts the knobs as a raw submit body to a server whose base
// is the given configuration, and returns the job the server queued.
func submitJob(t *testing.T, base darco.Config, ref string, scale float64, knobs string) (darco.Job, error) {
	srv, c := newTestServer(t, Config{Workers: 1, Base: &base})
	body := fmt.Sprintf(`{"workload": %q, "scale": %g, %s`, ref, scale,
		strings.TrimPrefix(strings.TrimSpace(knobs), "{"))
	resp, err := http.Post(c.BaseURL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return darco.Job{}, fmt.Errorf("submit: %s: %s", resp.Status, raw)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	j := srv.jobs[sr.ID]
	srv.mu.Unlock()
	if key, err := j.sjob.Key(); err != nil || key != sr.Key {
		t.Fatalf("submit response key %q, queued job's key %q (%v)", sr.Key, key, err)
	}
	return j.sjob, nil
}

// TestSubmitISARedirectsCatalogRef pins the wire's isa knob to what
// `darco -isa rv32 -bench 429.mcf` does: the bare catalog name resolves
// through the rv32 frontend's catalog, and the run — pinned to rv32, so
// the x86 program of the same name would be refused — completes.
func TestSubmitISARedirectsCatalogRef(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	resp, err := c.Submit(context.Background(), SubmitRequest{
		Workload: "429.mcf", Scale: 0.05, Knobs: darco.Knobs{ISA: "rv32"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, resp.ID, StateDone)
	if want := workload.RefForISA("429.mcf", "rv32"); st.Workload != want {
		t.Fatalf("submitted workload resolved to %q, want %q", st.Workload, want)
	}
	cli, err := darco.WithWorkload("rv32:429.mcf", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cli.Config.ISA = "rv32"
	if key, err := cli.Key(); err != nil || key != resp.Key {
		t.Fatalf("served key %q, `darco -isa rv32` key %q (%v)", resp.Key, key, err)
	}
}
