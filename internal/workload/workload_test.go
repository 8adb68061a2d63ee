package workload

import (
	"testing"

	"repro/internal/emu"
)

func TestCatalogComplete(t *testing.T) {
	c := Catalog()
	if len(c) != 48 {
		t.Fatalf("catalog has %d benchmarks, want 48", len(c))
	}
	counts := map[Suite]int{}
	names := map[string]bool{}
	for _, s := range c {
		counts[s.Suite]++
		if names[s.Name] {
			t.Errorf("duplicate benchmark name %q", s.Name)
		}
		names[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	// Paper suite sizes: 12 INT, 16 FP, 8 Physicsbench, 12 Mediabench.
	if counts[SPECInt] != 12 || counts[SPECFP] != 16 || counts[Physics] != 8 || counts[Media] != 12 {
		t.Fatalf("suite sizes: %v", counts)
	}
}

func TestOutliersInCatalog(t *testing.T) {
	for _, o := range Outliers() {
		if _, err := ByName(o); err != nil {
			t.Errorf("outlier %s missing: %v", o, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestAllBenchmarksBuildAndHalt(t *testing.T) {
	// Every catalog entry must assemble and run to completion on the
	// reference emulator at a reduced scale.
	for _, s := range Catalog() {
		s := s.Scale(0.1)
		p, err := s.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", s.Name, err)
		}
		if p.StaticInst == 0 || len(p.Code) == 0 {
			t.Fatalf("%s: empty program", s.Name)
		}
		e := emu.New(p)
		if err := e.Run(100_000_000); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if e.DynInsts == 0 {
			t.Fatalf("%s: no instructions executed", s.Name)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	s, err := ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatal("non-deterministic build size")
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("non-deterministic code at byte %d", i)
		}
	}
}

func TestScale(t *testing.T) {
	s, _ := ByName("401.bzip2")
	s2 := s.Scale(2)
	if s2.OuterIters != s.OuterIters*2 {
		t.Fatalf("scale: %d vs %d", s2.OuterIters, s.OuterIters)
	}
	s0 := s.Scale(0.0001)
	if s0.OuterIters < 1 {
		t.Fatal("scale floor broken")
	}
}

func TestIndirectDensityDiffers(t *testing.T) {
	// perlbench-like must execute far more indirect branches per
	// instruction than bzip2-like.
	density := func(name string) float64 {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Scale(0.2)
		p, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		e := emu.New(p)
		if err := e.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		return float64(e.DynIndirect) / float64(e.DynInsts)
	}
	perl := density("400.perlbench")
	bzip := density("401.bzip2")
	if perl < 20*bzip {
		t.Fatalf("indirect density: perlbench %.5f vs bzip2 %.5f", perl, bzip)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	s := Spec{Name: "x", Footprint: 1000}
	if err := s.Validate(); err == nil {
		t.Fatal("non-power-of-two footprint accepted")
	}
	s = Spec{Name: "x", Stride: 3}
	if err := s.Validate(); err == nil {
		t.Fatal("non-power-of-two stride accepted")
	}
	s = Spec{Name: "x", Fanout: 100}
	if err := s.Validate(); err == nil {
		t.Fatal("excess fanout accepted")
	}
}
