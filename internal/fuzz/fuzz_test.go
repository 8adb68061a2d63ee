package fuzz

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/guest"
	"repro/internal/tol"
	"repro/internal/workload"
)

// demoSpec is a small deterministic spec with every region kind: 3
// cold + 2 warm blocks, 2 hot kernels crossing the BB threshold, and a
// 4-way dispatcher. Blocks() = 11, above the <= 8 minimization bar.
func demoSpec() workload.Spec {
	return workload.Spec{
		Name: "fuzz-demo", Seed: 7,
		HotKernels: 2, KernelLen: 8, KernelIter: 50, OuterIters: 2,
		ColdBlocks: 3, ColdLen: 6, WarmBlocks: 2, WarmLen: 6, WarmIters: 4,
		Fanout: 4, DispatchIters: 10,
		MemFrac: 0.2, Footprint: 1 << 10, Stride: 4,
	}
}

// TestInjectedFaultCaughtAndMinimized is the oracle's mutation test —
// the acceptance demo: a deliberately injected translator bug (the BBM
// emitter silently drops inc instructions) must be caught by the
// differential oracle across the smoke matrix and minimized by the
// shrinking minimizer to a reproducer of at most 8 blocks.
func TestInjectedFaultCaughtAndMinimized(t *testing.T) {
	ctx := context.Background()
	o := New(smokeMatrix())
	o.Fault = tol.FaultDropInc

	spec := demoSpec()
	rep, err := o.Check(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Finding()
	if f == nil {
		t.Fatalf("injected fault %s not caught; report: %+v", tol.FaultDropInc, rep.Cells)
	}
	if f.Div.Fault != tol.FaultDropInc {
		t.Errorf("divergence does not record the fault: %+v", f.Div)
	}
	if f.Div.In == "" || len(f.Div.Delta()) == 0 {
		t.Errorf("divergence not actionable: %+v", f.Div)
	}
	// The lost instruction is the kernel loop's inc of the data index.
	if !strings.Contains(f.Div.Error(), "esi") {
		t.Errorf("expected an ESI delta in %q", f.Div.Error())
	}

	min, err := o.Minimize(ctx, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if min.Blocks > 8 {
		t.Fatalf("minimized to %d blocks (> 8) after %d steps / %d attempts: %+v",
			min.Blocks, min.Steps, min.Attempts, min.Spec)
	}
	if min.Div == nil {
		t.Fatal("minimized result carries no divergence")
	}
	if min.Steps == 0 {
		t.Fatalf("minimizer accepted no shrink from an %d-block spec", spec.Blocks())
	}

	// The minimized reproducer must still diverge under its cell — and
	// run clean once the injected bug is removed, which is exactly what
	// committing it as a regression artifact asserts forever.
	clean := New([]Cell{f.Cell})
	cleanRep, err := clean.Check(ctx, min.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRep.Clean() {
		t.Fatalf("minimized spec misbehaves without the fault: %+v", cleanRep)
	}

	// Filing the reproducer produces a replayable trace artifact.
	dir := t.TempDir()
	path, err := WriteRegression(dir, min.Spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := darco.Run(ctx, mustBuild(t, tr.Program()), darco.WithCosim(true))
	if err != nil {
		t.Fatalf("regression replay: %v", err)
	}
	if res.GuestDyn() == 0 {
		t.Fatal("regression replay executed nothing")
	}
}

func mustBuild(t *testing.T, p workload.Program) *guest.Program {
	t.Helper()
	g, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRLEStaleBaseFaultRegistered pins the second registered mutation:
// the subtle rle alias-discipline bug is a valid fault configuration
// that fuzzing sweeps can select.
func TestRLEStaleBaseFaultRegistered(t *testing.T) {
	cfg := darco.DefaultConfig()
	cfg.TOL.Fault = tol.FaultRLEStaleBase
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleCleanOnGeneratedSpecs is the zero-outstanding-divergences
// gate: generated specs must survive the full smoke matrix plus the
// snapshot-resume and sampled-vs-full cross-checks with no findings.
func TestOracleCleanOnGeneratedSpecs(t *testing.T) {
	ctx := context.Background()
	o := New(smokeMatrix())
	o.SnapshotCheck = true
	o.SampledCheck = true
	for _, ref := range []struct {
		seed    int64
		profile string
	}{{1, "hot"}, {2, "indirect"}, {3, "tiny"}} {
		s, err := workload.GenSpec(ref.seed, ref.profile)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Clamp(40_000)
		rep, err := o.Check(ctx, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: oracle findings on a clean translator: cross=%q snapshot=%q sampled=%q cells=%+v",
				s.Name, rep.CrossCheck, rep.SnapshotErr, rep.SampledErr, rep.Cells)
		}
		if rep.Coverage.DynTotal == 0 || rep.Coverage.BBTranslated == 0 {
			t.Errorf("%s: sweep exercised no translator activity: %+v", s.Name, rep.Coverage)
		}
	}
}

// TestOracleCoverageCountsEviction ensures a bounded-cache cell under
// real pressure exercises the eviction/retranslation machinery and
// that the coverage report records it — the signal distinguishing a
// thorough sweep from one that never stressed cache management.
func TestOracleCoverageCountsEviction(t *testing.T) {
	s, err := workload.GenSpec(4, "shift")
	if err != nil {
		t.Fatal(err)
	}
	s = s.Clamp(60_000)
	o := New([]Cell{cell(2, 512, "lru-translation", "", 0)})
	rep, err := o.Check(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("findings on a clean translator: %+v", rep)
	}
	if rep.Coverage.Evictions == 0 || rep.Coverage.Retranslations == 0 {
		t.Fatalf("bounded cell exercised no eviction churn: %+v", rep.Coverage)
	}
}

// TestRegressionDirConvention pins the artifact naming so committed
// regressions and the replay test agree.
func TestRegressionDirConvention(t *testing.T) {
	s := demoSpec()
	dir := t.TempDir()
	path, err := WriteRegression(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "fuzz-demo.trace.json" {
		t.Fatalf("artifact name: %s", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageAddSumsEveryField: Coverage.Add is the one place coverage
// is summed, so a field it skips would drop from every report and sweep
// total. Every field is filled by reflection, so a new field is checked
// without editing the test.
func TestCoverageAddSumsEveryField(t *testing.T) {
	fill := func(k uint64) Coverage {
		var c Coverage
		v := reflect.ValueOf(&c).Elem()
		for i := 0; i < v.NumField(); i++ {
			n := k * uint64(i+1)
			switch f := v.Field(i); f.Kind() {
			case reflect.Int:
				f.SetInt(int64(n))
			case reflect.Uint64:
				f.SetUint(n)
			case reflect.Map:
				f.Set(reflect.ValueOf(map[string]uint64{"x86": n}))
			default:
				t.Fatalf("Coverage.%s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
			}
		}
		return c
	}
	var got Coverage
	got.Add(fill(1))
	got.Add(fill(1))
	if want := fill(2); !reflect.DeepEqual(got, want) {
		t.Errorf("two Adds of %+v = %+v, want %+v", fill(1), got, want)
	}
}
