package darco

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/tol"
	"repro/internal/workload"
)

// TestSyntheticSourceCycleIdentical is the acceptance check of the
// Source redesign: the synthetic: source must be indistinguishable
// from the pre-interface Spec path for every catalog benchmark. Image
// identity is checked exhaustively (the engine is deterministic, so
// identical images imply identical streams and cycles); full
// stream/Stats equality is then verified on a representative subset by
// running both paths end to end.
func TestSyntheticSourceCycleIdentical(t *testing.T) {
	hash := func(p workload.Program) string {
		img, err := p.Build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		h := sha256.New()
		h.Write(img.Code)
		for _, seg := range img.Data {
			fmt.Fprintf(h, "|%d:", seg.Addr)
			h.Write(seg.Bytes)
		}
		return fmt.Sprintf("%x|%x|%d", h.Sum(nil), img.Entry, img.StaticInst)
	}
	for _, spec := range workload.Catalog() {
		viaSource, err := workload.Open("synthetic:" + spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if hash(viaSource) != hash(workload.SpecProgram{Spec: spec}) {
			t.Errorf("%s: synthetic: source image differs from Spec.Build", spec.Name)
		}
	}

	for _, name := range []string{"462.libquantum", "107.novis_ragdoll", "400.perlbench"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec = spec.Scale(0.25)
		sess := NewSession(WithWorkers(2))
		old, err := sess.Run(context.Background(), JobForProgram(workload.SpecProgram{Spec: spec}, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		job, err := WithWorkload("synthetic:"+name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		nu, err := sess.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		ob, _ := json.Marshal(old)
		nb, _ := json.Marshal(nu)
		if !bytes.Equal(ob, nb) {
			t.Errorf("%s: synthetic: source result differs from Spec path", name)
		}
	}
}

// TestTraceReplayCrossConfig is the record/replay acceptance check: a
// trace recorded under the default configuration, replayed under a
// different -cc-size/-O configuration, must reproduce the exact
// tol.Stats (and full Result) of running the original benchmark
// directly under that different configuration — the property that
// makes recorded traces valid inputs for cross-config sweeps.
func TestTraceReplayCrossConfig(t *testing.T) {
	const name = "462.libquantum"
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(0.25)
	orig := workload.SpecProgram{Spec: spec}

	// Record under the default configuration (the recording run's
	// config is irrelevant to the trace: only the image is captured).
	if _, err := Run(context.Background(), mustBuild(t, orig)); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTrace(orig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replay under a deliberately different configuration: bounded
	// code cache and a different optimization preset.
	cross := DefaultConfig()
	if err := tol.ApplyOptLevel(&cross.TOL, 1); err != nil {
		t.Fatal(err)
	}
	cross.TOL.Cache = tol.CacheConfig{CapacityInsts: 512, Policy: "lru-translation"}
	direct, err := cross.runWith(context.Background(), mustBuild(t, orig), runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := cross.runWith(context.Background(), mustBuild(t, back.Program()), runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.TOL, replay.TOL) {
		t.Error("replayed tol.Stats differ from the direct run under the cross config")
	}
	db, _ := json.Marshal(direct)
	rb, _ := json.Marshal(replay)
	if !bytes.Equal(db, rb) {
		t.Error("replayed full Result differs from the direct run under the cross config")
	}
}

// TestWithWorkloadJob covers the reference-string job constructor.
func TestWithWorkloadJob(t *testing.T) {
	job, err := WithWorkload("synthetic:401.bzip2", 0.5, WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "401.bzip2" || job.NoPreload {
		t.Fatalf("job %+v", job)
	}
	if job.Program.(workload.SpecProgram).Spec.OuterIters == 0 {
		t.Fatal("scale not applied")
	}
	phased, err := WithWorkload("phased:401.bzip2+998.specrand", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !phased.NoPreload {
		t.Error("non-synthetic job did not opt out of preloading")
	}
	if _, err := WithWorkload("nope:x", 1); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := WithWorkload("trace:/nonexistent.trace.json", 1); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func mustBuild(t *testing.T, p workload.Program) *guest.Program {
	t.Helper()
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSameNameDifferentProgramsDoNotAlias is the memo-key regression
// test: two traces recorded from the same benchmark at different
// scales share a Name, and the session must still run both instead of
// serving the second from the first's cache slot.
func TestSameNameDifferentProgramsDoNotAlias(t *testing.T) {
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	traceOf := func(scale float64) workload.Program {
		tr, err := workload.NewTrace(workload.SpecProgram{Spec: spec.Scale(scale)})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Program()
	}
	small, big := traceOf(0.25), traceOf(0.5)
	if workload.Fingerprint(small) == workload.Fingerprint(big) {
		t.Fatal("different images share a fingerprint")
	}
	sess := NewSession(WithWorkers(2))
	rs, err := sess.Run(context.Background(), JobForProgram(small, 1, WithCosim(false)))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sess.Run(context.Background(), JobForProgram(big, 1, WithCosim(false)))
	if err != nil {
		t.Fatal(err)
	}
	if rs.GuestDyn() == rb.GuestDyn() {
		t.Fatalf("same-name traces aliased: both report %d dynamic instructions", rs.GuestDyn())
	}
	// The same program twice still memoizes.
	again, err := sess.Run(context.Background(), JobForProgram(small, 1, WithCosim(false)))
	if err != nil {
		t.Fatal(err)
	}
	if again != rs {
		t.Error("identical program did not hit the memo cache")
	}
}
