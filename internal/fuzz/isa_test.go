package fuzz

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestOracleCleanOnRV32Specs is the RV32I half of the
// zero-outstanding-divergences gate: rv32-profile generated specs must
// survive the full smoke matrix plus the snapshot-resume and
// sampled-vs-full cross-checks, and the coverage report must attribute
// the activity to the rv32 frontend.
func TestOracleCleanOnRV32Specs(t *testing.T) {
	ctx := context.Background()
	o := New(smokeMatrix())
	o.SnapshotCheck = true
	o.SampledCheck = true
	for _, seed := range []int64{11, 12} {
		s, err := workload.GenSpec(seed, "rv32")
		if err != nil {
			t.Fatal(err)
		}
		s = s.Clamp(40_000)
		if s.ISA != "rv32" {
			t.Fatalf("rv32-profile spec carries ISA %q", s.ISA)
		}
		rep, err := o.Check(ctx, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: oracle findings on a clean translator: cross=%q snapshot=%q sampled=%q cells=%+v",
				s.Name, rep.CrossCheck, rep.SnapshotErr, rep.SampledErr, rep.Cells)
		}
		if rep.Coverage.ByISA["rv32"] == 0 {
			t.Errorf("%s: coverage attributes no dynamic instructions to rv32: %+v",
				s.Name, rep.Coverage)
		}
		if rep.Coverage.ByISA["x86"] != 0 {
			t.Errorf("%s: pure-rv32 sweep counted x86 activity: %+v", s.Name, rep.Coverage)
		}
	}
}

// TestOracleCoverageSplitsByISA runs one spec per frontend through the
// same oracle and checks the per-ISA accounting sums to the total — a
// sweep claiming both-ISA coverage must be able to prove it.
func TestOracleCoverageSplitsByISA(t *testing.T) {
	o := New([]Cell{cell(2, 0, "", "", 0)})
	var total Coverage
	for _, ref := range []struct {
		seed    int64
		profile string
	}{{5, "mixed"}, {11, "rv32"}} {
		s, err := workload.GenSpec(ref.seed, ref.profile)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Clamp(30_000)
		rep, err := o.Check(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: oracle findings on a clean translator: %+v", s.Name, rep)
		}
		if total.ByISA == nil {
			total.ByISA = make(map[string]uint64)
		}
		for isa, dyn := range rep.Coverage.ByISA {
			total.ByISA[isa] += dyn
		}
		total.DynTotal += rep.Coverage.DynTotal
	}
	if total.ByISA["x86"] == 0 || total.ByISA["rv32"] == 0 {
		t.Fatalf("both-ISA sweep missing a frontend: %+v", total.ByISA)
	}
	if total.ByISA["x86"]+total.ByISA["rv32"] != total.DynTotal {
		t.Fatalf("per-ISA accounting does not sum to the total: %+v vs %d",
			total.ByISA, total.DynTotal)
	}
}
