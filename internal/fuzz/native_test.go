package fuzz

import (
	"context"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The native go-fuzz entry points share the Spec JSON encoding with
// the generator-driven oracle: the seed corpus is EncodeSpec output,
// and the engine mutates that JSON. Run them with
//
//	go test ./internal/fuzz -fuzz FuzzTranslatorCosim
//	go test ./internal/fuzz -fuzz FuzzSnapshotResume
//
// Under plain `go test` only the seed corpus executes, so the budgets
// below keep tier-1 runs fast.

// nativeBudget bounds one fuzz case: estimated dynamic instructions
// after clamping, and the static-size guard applied before Build so a
// mutated entry cannot demand unbounded generated code.
const (
	nativeDynBudget    = 30_000
	nativeStaticBudget = 50_000
)

// decodeCase turns fuzz input into a runnable spec, reporting ok=false
// for inputs that are not valid bounded specs (the fuzzing engine
// explores plenty of those; they are skips, not failures).
func decodeCase(data []byte) (workload.Spec, bool) {
	spec, err := workload.DecodeSpec(data)
	if err != nil {
		return workload.Spec{}, false
	}
	if spec.EstStaticInsts() > nativeStaticBudget {
		return workload.Spec{}, false
	}
	return spec.Clamp(nativeDynBudget), true
}

func seedCorpus(f *testing.F) {
	f.Helper()
	for _, profile := range workload.FuzzProfiles() {
		for seed := int64(0); seed < 2; seed++ {
			s, err := workload.GenSpec(seed, profile)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(workload.EncodeSpec(s.Clamp(nativeDynBudget)))
		}
	}
}

// FuzzTranslatorCosim runs decoded specs through one full-pipeline
// configuration with co-simulation enabled: any divergence from the
// authoritative emulator fails the case. Non-divergence errors
// (budget guards) skip — they are workload-shape noise, not bugs.
func FuzzTranslatorCosim(f *testing.F) {
	seedCorpus(f)
	o := New([]Cell{cell(3, 0, "", "", 0)})
	o.MaxGuestInsts = 2 * nativeDynBudget
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ok := decodeCase(data)
		if !ok {
			t.Skip()
		}
		div, err := o.reproduce(context.Background(), spec, o.Cells[0])
		if err != nil {
			t.Skip() // context cancellation only
		}
		if div != nil {
			t.Fatalf("cosim divergence:\n%s\nspec: %s", div.Report(), workload.EncodeSpec(spec))
		}
	})
}

// FuzzSnapshotResume checkpoints each decoded spec mid-run through the
// snapshot envelope, resumes, and fails the case if the completed run
// differs from an uninterrupted one in any architectural or timing
// respect.
func FuzzSnapshotResume(f *testing.F) {
	seedCorpus(f)
	c := cell(2, 0, "", "", 0)
	o := New([]Cell{c})
	o.MaxGuestInsts = 2 * nativeDynBudget
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ok := decodeCase(data)
		if !ok {
			t.Skip()
		}
		spec = spec.Clamp(nativeDynBudget / 2)
		if err := o.checkSnapshotResume(context.Background(), spec, c); err != nil {
			// A failing *reference* run means the spec itself is noise
			// (runaway guard, degenerate shape) — nothing snapshot-related
			// was compared yet.
			if strings.HasPrefix(err.Error(), "reference run:") {
				t.Skip()
			}
			t.Fatalf("snapshot/resume mismatch: %v\nspec: %s", err, workload.EncodeSpec(spec))
		}
	})
}
