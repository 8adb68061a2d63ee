package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
)

func fibProgram(n int32) *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.EBX, 1)
	b.MovRI(guest.ECX, n)
	b.Label("loop")
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondE, "done")
	b.MovRR(guest.EDX, guest.EBX)
	b.AddRR(guest.EBX, guest.EAX)
	b.MovRR(guest.EAX, guest.EDX)
	b.Dec(guest.ECX)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustBuild()
}

func testRunner(parallel int) *Runner {
	tcfg := tol.DefaultConfig()
	tcfg.SBThreshold = 20
	return &Runner{
		TOL:      tcfg,
		Timing:   timing.DefaultConfig(),
		Mode:     timing.ModeShared,
		Sample:   Config{Interval: 600, Every: 2, Warmup: 100},
		Parallel: parallel,
	}
}

// fullRun produces the uninterrupted detailed reference for the same
// configuration.
func fullRun(t *testing.T, p *guest.Program, r *Runner) (*timing.Result, *tol.Engine) {
	t.Helper()
	eng := tol.NewEngine(r.TOL, p)
	sim := timing.NewSimulator(r.Timing, r.Mode)
	res, err := sim.Run(eng)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if !eng.Halted() {
		t.Fatal("full run did not halt")
	}
	return res, eng
}

func TestSampledFunctionalTotalsAreExact(t *testing.T) {
	p := fibProgram(500)
	r := testRunner(2)
	res, err := r.Run(t.Context(), p)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	ref, refEng := fullRun(t, p, r)

	if res.Report.GuestInsts != refEng.Stats.DynTotal() {
		t.Errorf("guest insts: sampled %d, full %d", res.Report.GuestInsts, refEng.Stats.DynTotal())
	}
	if res.Report.HostInsts != ref.TotalInsts() {
		t.Errorf("host insts: sampled %d, full %d", res.Report.HostInsts, ref.TotalInsts())
	}
	gotStats, _ := json.Marshal(&res.TOL)
	wantStats, _ := json.Marshal(&refEng.Stats)
	if !bytes.Equal(gotStats, wantStats) {
		t.Errorf("TOL stats differ:\nsampled: %s\nfull:    %s", gotStats, wantStats)
	}
	if d := res.Final.Diff(refEng.GuestState()); d != "" {
		t.Errorf("final state differs: %s", d)
	}
	if res.CodeCacheInsts != refEng.CC.UsedInsts() {
		t.Errorf("code cache occupancy: sampled %d, full %d", res.CodeCacheInsts, refEng.CC.UsedInsts())
	}

	// The cycle estimate targets the full run's cycles; on this regular
	// workload the ratio estimator should land close.
	est := float64(res.Report.EstCycles)
	full := float64(ref.Cycles)
	if est < 0.5*full || est > 1.5*full {
		t.Errorf("cycle estimate %v too far from full run's %v", est, full)
	}
	if len(res.Report.Metrics) == 0 {
		t.Error("report has no metric estimates")
	}
	if res.Report.Intervals < 2 || len(res.Report.Measured) < 2 {
		t.Errorf("expected multiple intervals, got %d total / %d measured", res.Report.Intervals, len(res.Report.Measured))
	}
}

// TestSampledDeterminismAcrossParallelism pins that the report is
// bit-identical regardless of worker count — the property that lets
// darco memoize sampled results under a parallelism-free cache key.
func TestSampledDeterminismAcrossParallelism(t *testing.T) {
	p := fibProgram(500)
	var blobs [][]byte
	for _, par := range []int{1, 4} {
		res, err := testRunner(par).Run(t.Context(), p)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		blob, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		blobs = append(blobs, blob)
		tblob, _ := json.Marshal(res.Timing)
		blobs = append(blobs, tblob)
	}
	if !bytes.Equal(blobs[0], blobs[2]) {
		t.Errorf("reports differ across parallelism:\njobs=1: %s\njobs=4: %s", blobs[0], blobs[2])
	}
	if !bytes.Equal(blobs[1], blobs[3]) {
		t.Errorf("estimated timing differs across parallelism:\njobs=1: %s\njobs=4: %s", blobs[1], blobs[3])
	}
}

// memCache is an in-memory BlobCache double.
type memCache struct {
	mu   sync.Mutex
	m    map[string]json.RawMessage
	gets int
	puts int
}

func (c *memCache) GetRaw(key string) (json.RawMessage, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	raw, ok := c.m[key]
	return raw, ok, nil
}

func (c *memCache) PutRaw(key string, raw json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.m == nil {
		c.m = map[string]json.RawMessage{}
	}
	c.m[key] = append(json.RawMessage(nil), raw...)
	return nil
}

// TestFastForwardBundleCache pins warm-starting: a second sampled run
// with the same program fingerprint and plan serves the fast-forward
// pass from the cache and produces the identical result. The first run
// measures from the machines it captured; the second from machines
// decoded out of the stored bundle, cosim shadow included.
func TestFastForwardBundleCache(t *testing.T) {
	p := fibProgram(500)
	cache := &memCache{}
	r1 := testRunner(4)
	r1.TOL.Cosim = true
	r1.Program, r1.Cache = "fib-500", cache
	res1, err := r1.Run(t.Context(), p)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if res1.Report.FFCached {
		t.Fatal("first run cannot be a cache hit")
	}
	if cache.puts != 1 {
		t.Fatalf("expected 1 bundle put, got %d", cache.puts)
	}

	r2 := testRunner(4)
	r2.TOL.Cosim = true
	r2.Program, r2.Cache = "fib-500", cache
	res2, err := r2.Run(t.Context(), p)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !res2.Report.FFCached {
		t.Fatal("second run should warm-start from the cached bundle")
	}
	res2.Report.FFCached = false // compare everything else
	for _, part := range []struct {
		name   string
		fresh  any
		cached any
	}{
		{"report", res1.Report, res2.Report},
		{"timing", res1.Timing, res2.Timing},
		{"TOL stats", &res1.TOL, &res2.TOL},
		{"final state", &res1.Final, &res2.Final},
		{"code cache", [2]int{res1.CodeCacheInsts, res1.Translations}, [2]int{res2.CodeCacheInsts, res2.Translations}},
	} {
		b1, _ := json.Marshal(part.fresh)
		b2, _ := json.Marshal(part.cached)
		if !bytes.Equal(b1, b2) {
			t.Errorf("cached-bundle %s differs:\nfresh:  %s\ncached: %s", part.name, b1, b2)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Interval: 1000, Every: 1}, true},
		{Config{Interval: 1000, Every: 4, Warmup: 999}, true},
		{Config{Interval: 0, Every: 1}, false},
		{Config{Interval: 1000, Every: 0}, false},
		{Config{Interval: 1000, Every: 1, Warmup: 1000}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
	def := DefaultConfig()
	if err := def.Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// TestDoctoredBundleResimulates pins that a cached bundle this build
// cannot restore degrades to a fresh fast-forward instead of failing
// the run: each doctored bundle is a miss that re-simulates, and the
// result equals a run with no cache at all.
func TestDoctoredBundleResimulates(t *testing.T) {
	p := fibProgram(500)
	fresh, err := testRunner(2).Run(t.Context(), p)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	wantRep, _ := json.Marshal(fresh.Report)
	wantTim, _ := json.Marshal(fresh.Timing)

	cases := []struct {
		name   string
		doctor func(machine map[string]any, snap map[string]any)
	}{
		{"version-2", func(m, _ map[string]any) { m["version"] = 2 }},
		{"machine-null", func(_, s map[string]any) { s["machine"] = nil }},
		{"engine-null", func(m, _ map[string]any) { m["engine"] = nil }},
		{"unregistered-isa", func(m, _ map[string]any) { m["isa"] = "z80" }},
		{"foreign-isa", func(m, _ map[string]any) { m["isa"] = "rv32" }},
		{"index-shifted", func(_, s map[string]any) {
			i, _ := s["index"].(json.Number).Int64() // marshalled from an int
			s["index"] = i + 1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := &memCache{}
			r := testRunner(2)
			r.Program, r.Cache = "fib-500", cache
			if _, err := r.Run(t.Context(), p); err != nil {
				t.Fatalf("seeding run: %v", err)
			}
			for key, raw := range cache.m {
				var b map[string]any
				dec := json.NewDecoder(bytes.NewReader(raw))
				dec.UseNumber() // keep 64-bit fields exact
				if err := dec.Decode(&b); err != nil {
					t.Fatal(err)
				}
				for _, s := range b["snapshots"].([]any) {
					snap := s.(map[string]any)
					c.doctor(snap["machine"].(map[string]any), snap)
				}
				doctored, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				cache.m[key] = doctored
			}

			res, err := r.Run(t.Context(), p)
			if err != nil {
				t.Fatalf("doctored bundle failed the run: %v", err)
			}
			if res.Report.FFCached {
				t.Fatal("doctored bundle served as a cache hit")
			}
			gotRep, _ := json.Marshal(res.Report)
			gotTim, _ := json.Marshal(res.Timing)
			if !bytes.Equal(gotRep, wantRep) {
				t.Errorf("report differs from a fresh run:\ngot:  %s\nwant: %s", gotRep, wantRep)
			}
			if !bytes.Equal(gotTim, wantTim) {
				t.Errorf("timing differs from a fresh run:\ngot:  %s\nwant: %s", gotTim, wantTim)
			}
		})
	}
}

// TestIntervalPanicFailsRun: a panic while measuring an interval (here
// a zero timing geometry, which divides by zero building the caches)
// fails the run with the panic instead of ending the process.
func TestIntervalPanicFailsRun(t *testing.T) {
	r := testRunner(2)
	r.Timing = timing.Config{}
	_, err := r.Run(context.Background(), fibProgram(500))
	if err == nil || !strings.Contains(err.Error(), "sample: interval 0: panic: ") {
		t.Fatalf("err = %v, want the interval's panic", err)
	}
}
