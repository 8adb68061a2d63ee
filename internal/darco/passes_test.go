package darco

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// hotProgram is a small loop that promotes to SBM quickly under a low
// threshold.
func hotProgram() *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.ECX, 2000)
	b.Label("loop")
	b.AddRR(guest.EAX, guest.ECX)
	b.XorRI(guest.EAX, 0x55)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	return b.MustBuild()
}

// lowThreshold is DefaultConfig with co-simulation off and a
// superblock threshold low enough for hotProgram to promote.
func lowThreshold() Config {
	cfg := DefaultConfig()
	cfg.TOL.Cosim = false
	cfg.TOL.SBThreshold = 50
	return cfg
}

// TestRecordPassStatsRoundTrip: the per-pass SBM breakdown must
// survive the Record JSON interchange (darco-suite -json →
// darco-figs -from) exactly.
func TestRecordPassStatsRoundTrip(t *testing.T) {
	cfg := lowThreshold()
	res, err := cfg.runWith(context.Background(), hotProgram(), runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TOL.SBPasses) == 0 {
		t.Fatal("run produced no per-pass stats")
	}

	rec := NewRecord("hotloop", "test", 1.0, timing.ModeShared, res, nil)
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Result == nil {
		t.Fatalf("decoded %d records", len(recs))
	}
	if !reflect.DeepEqual(recs[0].Result.TOL.SBPasses, res.TOL.SBPasses) {
		t.Fatalf("SBPasses did not round-trip:\n got %+v\nwant %+v",
			recs[0].Result.TOL.SBPasses, res.TOL.SBPasses)
	}
	if recs[0].Result.TOL.SBOtherInsts != res.TOL.SBOtherInsts {
		t.Fatal("SBOtherInsts did not round-trip")
	}
	if !reflect.DeepEqual(recs[0].Summary.TOL.SBPasses, res.TOL.Summary().SBPasses) {
		t.Fatal("Summary.SBPasses did not round-trip")
	}
}

// TestDecodeRecordsRejectsTrailingData: a records file is one array;
// anything but whitespace after it fails the decode instead of being
// dropped, so a corrupt or concatenated -from file is not read as its
// first value. A field this build does not read fails it too.
func TestDecodeRecordsRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, []Record{{Benchmark: "429.mcf", Suite: "int", Scale: 1, Mode: "shared", Error: "boom"}}); err != nil {
		t.Fatal(err)
	}
	array := buf.String()
	for _, c := range []struct {
		name, tail string
		ok         bool
	}{
		{"as encoded", "", true},
		{"trailing whitespace", " \t\r\n\n", true},
		{"truncated object", ` {"garbage": tru`, false},
		{"extra brackets", "]]]", false},
		{"second array", "[]", false},
		{"unknown field", "", false},
	} {
		in := array + c.tail
		if c.name == "unknown field" {
			in = strings.Replace(in, "{", `{"no_such_field": 1, `, 1)
		}
		recs, err := DecodeRecords(strings.NewReader(in))
		if c.ok && (err != nil || len(recs) != 1 || recs[0].Error != "boom") {
			t.Errorf("%s: got %d records, error %v; want the one record", c.name, len(recs), err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: got %d records and no error; want an error", c.name, len(recs))
		}
	}
}

// TestPipelineResultDeterminism: one pipeline spec ⇒ byte-identical
// Result JSON across repeated runs (the property the Session cache and
// the figure harness rely on).
func TestPipelineResultDeterminism(t *testing.T) {
	run := func() string {
		cfg := lowThreshold()
		cfg.TOL.Passes, cfg.TOL.OptLevel = "dce,constprop,rle,sched", ""
		cfg.TOL.Promotion = "adaptive"
		res, err := cfg.runWith(context.Background(), hotProgram(), runEnv{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if run() != run() {
		t.Fatal("same pipeline spec produced different Result JSON")
	}
}

// TestRunValidatesConfig: bad pipeline, policy and timing specs must
// fail fast with a clear error from the run path and Session.Run alike.
func TestRunValidatesConfig(t *testing.T) {
	ctx := context.Background()
	p := hotProgram()

	for _, tc := range []struct {
		name, want string
		edit       func(*Config)
	}{
		{"bad pipeline", "unknown pass", func(c *Config) { c.TOL.Passes = "bogus" }},
		{"bad policy", "unknown promotion policy", func(c *Config) { c.TOL.Promotion = "bogus" }},
		{"bad opt level", "optimization level", func(c *Config) { c.TOL.Passes, c.TOL.OptLevel = "", "O9" }},
		// An empty pipeline alone leaves SBM enabled: rejected.
		{"empty pipeline + SBM", "empty optimization pipeline", func(c *Config) { c.TOL.Passes = tol.PassesNone }},
		{"zero timing", "IssueWidth", func(c *Config) { c.Timing = timing.Config{} }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if _, err := cfg.runWith(ctx, p, runEnv{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	sess := NewSession(WithWorkers(1))
	var failed int
	sessEv := NewSession(WithWorkers(1), WithEvents(func(ev Event) {
		if ev.Kind == EventFailed {
			failed++
		}
	}))
	job := JobForProgram(workload.Func("bad", func() (*guest.Program, error) { return p, nil }), 1)
	job.Config.TOL.Passes = "bogus"
	if _, err := sess.Run(ctx, job); err == nil {
		t.Fatal("Session.Run with bad pipeline succeeded")
	}
	if _, err := sessEv.Run(ctx, job); err == nil {
		t.Fatal("Session.Run with bad pipeline succeeded")
	}
	if failed != 1 {
		t.Fatalf("expected one EventFailed, got %d", failed)
	}
}

// TestWithOptLevelZero: O0 stops at BBM (no superblocks, no per-pass
// stats) and still computes correctly.
func TestWithOptLevelZero(t *testing.T) {
	cfg := lowThreshold()
	cfg.TOL.Cosim = true
	if err := tol.ApplyOptLevel(&cfg.TOL, 0); err != nil {
		t.Fatal(err)
	}
	res, err := cfg.runWith(context.Background(), hotProgram(), runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TOL.SBCreated != 0 || res.TOL.DynSBM != 0 || len(res.TOL.SBPasses) != 0 {
		t.Fatalf("O0 ran SBM: %+v", res.TOL.Summary())
	}
	if res.TOL.DynBBM == 0 {
		t.Fatal("O0 never reached BBM")
	}
}

// TestOptLevelsOrdered: a catalog benchmark under O0..O3 — higher
// levels may only shrink the emitted superblock code, and every level
// stays deterministic and correct (cosim on).
func TestOptLevelsOrdered(t *testing.T) {
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(0.25)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var prevCC int
	for level := 1; level <= 3; level++ {
		cfg := DefaultConfig()
		if err := tol.ApplyOptLevel(&cfg.TOL, level); err != nil {
			t.Fatal(err)
		}
		res, err := cfg.runWith(context.Background(), p, runEnv{})
		if err != nil {
			t.Fatalf("O%d: %v", level, err)
		}
		if res.TOL.SBCreated == 0 {
			t.Fatalf("O%d created no superblocks", level)
		}
		if level > 1 && res.CodeCacheInsts > prevCC {
			t.Errorf("O%d emitted more code (%d) than O%d (%d)",
				level, res.CodeCacheInsts, level-1, prevCC)
		}
		prevCC = res.CodeCacheInsts
	}
}
