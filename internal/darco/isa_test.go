package darco

import (
	"context"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/sample"
	"repro/internal/tol"
	"repro/internal/workload"
)

// rv32Spec is a small RV32I workload exercising every frontend-relevant
// mechanism: hot loops crossing both promotion thresholds (superblocks
// form), a jump-table dispatcher (IBTC, indirect exits) and masked
// memory traffic.
func rv32Spec() workload.Spec {
	return workload.Spec{
		Name: "rv32-e2e", ISA: "rv32", Seed: 7,
		HotKernels: 2, KernelLen: 10, KernelIter: 400, OuterIters: 3,
		Fanout: 4, DispatchIters: 40,
		Footprint: 1 << 12, Stride: 4,
		MemFrac: 0.3, BranchFrac: 0.1,
	}
}

func buildRV32(t *testing.T) *workload.Spec {
	t.Helper()
	s := rv32Spec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestRV32EndToEndCosimO3 runs an RV32I workload through the full
// controller path — decode, all three tiers at -O3, timing — with
// per-instruction co-simulation against the reference emulator on.
func TestRV32EndToEndCosimO3(t *testing.T) {
	s := buildRV32(t)
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ISA = "rv32"
	if err := tol.ApplyOptLevel(&cfg.TOL, 3); err != nil {
		t.Fatal(err)
	}
	res, err := cfg.runWith(context.Background(), p, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestDyn() < 1000 {
		t.Fatalf("dynamic size too small to mean anything: %d", res.GuestDyn())
	}
	if res.TOL.SBCreated == 0 {
		t.Fatal("no superblocks formed: the -O3 pipeline never ran on RV32I code")
	}
	if res.TOL.CosimChecks == 0 {
		t.Fatal("cosim never checked an instruction")
	}
	if res.TOL.IBTCFills == 0 {
		t.Fatal("dispatcher never filled the IBTC: indirect exits untested")
	}
}

// TestRV32BoundedCacheEviction runs the same workload under a code
// cache small enough to force evictions and requires architectural
// results identical to the unbounded run.
func TestRV32BoundedCacheEviction(t *testing.T) {
	s := buildRV32(t)
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	free, err := Run(ctx, p, WithCosim(true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: 256, Policy: "lru-translation"}
	bounded, err := cfg.runWith(ctx, p, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.TOL.Evictions == 0 {
		t.Fatal("no evictions under a 256-slot cache: the pressure path never ran")
	}
	if got, want := bounded.GuestDyn(), free.GuestDyn(); got != want {
		t.Fatalf("bounded run retired %d guest insts, unbounded %d", got, want)
	}
	if d := bounded.Final.Diff(&free.Final); d != "" {
		t.Fatalf("bounded final state differs: %s", d)
	}
}

// TestRV32SampledMatchesFull checks the sampled-simulation path on an
// RV32I workload: functional outputs must be exact.
func TestRV32SampledMatchesFull(t *testing.T) {
	s := buildRV32(t)
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full, err := Run(ctx, p, WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TOL.Cosim = false
	cfg.Sampling = &sample.Config{Interval: 5_000, Every: 2, Warmup: 500}
	sampled, err := cfg.runWith(ctx, p, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Sampled == nil {
		t.Fatal("sampled run carries no sampling report")
	}
	if got, want := sampled.GuestDyn(), full.GuestDyn(); got != want {
		t.Fatalf("sampled run retired %d guest insts, full %d", got, want)
	}
	if d := sampled.Final.Diff(&full.Final); d != "" {
		t.Fatalf("sampled final state differs: %s", d)
	}
}

// TestISAPinRejectsMismatch covers the -isa guard: a config pinned to
// one frontend refuses programs decoding under another.
func TestISAPinRejectsMismatch(t *testing.T) {
	x86, err := workload.ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	px, err := x86.Build()
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(isa string, p *guest.Program) error {
		cfg := DefaultConfig()
		cfg.ISA = isa
		_, err := cfg.runWith(context.Background(), p, runEnv{})
		return err
	}
	if err := pinned("rv32", px); err == nil ||
		!strings.Contains(err.Error(), `pinned to ISA "rv32"`) {
		t.Fatalf("x86 program under -isa rv32: err = %v, want pin rejection", err)
	}
	rv := buildRV32(t)
	prv, err := rv.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned("x86", prv); err == nil ||
		!strings.Contains(err.Error(), `pinned to ISA "x86"`) {
		t.Fatalf("rv32 program under -isa x86: err = %v, want pin rejection", err)
	}
	if err := pinned("z80", prv); err == nil ||
		!strings.Contains(err.Error(), "z80") {
		t.Fatalf("unknown ISA accepted: %v", err)
	}
}

// TestSameNameAcrossISAsNeverAliases is the memo-key regression test of
// the frontend refactor: the same benchmark name opened through the x86
// and RV32I catalogs must produce distinct session cache keys (and
// therefore distinct persistent-store addresses) under the identical
// configuration.
func TestSameNameAcrossISAsNeverAliases(t *testing.T) {
	const name = "429.mcf"
	x86Job, err := WithWorkload("synthetic:"+name, 0.05, WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	rvJob, err := WithWorkload("rv32:"+name, 0.05, WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	if x86Job.Name != rvJob.Name {
		t.Fatalf("the two frontends renamed the benchmark: %q vs %q", x86Job.Name, rvJob.Name)
	}
	kx, err := x86Job.Key()
	if err != nil {
		t.Fatal(err)
	}
	kr, err := rvJob.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kx == kr {
		t.Fatalf("x86 and rv32 runs of %s share memo key %s", name, kx)
	}
	if !strings.Contains(rvJob.Variant, "isa=rv32") {
		t.Fatalf("rv32 job variant %q does not carry the ISA", rvJob.Variant)
	}
	if strings.Contains(x86Job.Variant, "isa=") {
		t.Fatalf("x86 job variant %q grew an ISA component (pre-frontend store keys would change)", x86Job.Variant)
	}

	// And end to end: both run through one session, yielding two cache
	// entries with different results (different ISAs really simulated).
	sess := NewSession(WithWorkers(2))
	ctx := context.Background()
	rx, err := sess.Run(ctx, x86Job)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sess.Run(ctx, rvJob)
	if err != nil {
		t.Fatal(err)
	}
	if rx.GuestDyn() == rr.GuestDyn() && rx.Timing.Cycles == rr.Timing.Cycles {
		t.Fatal("x86 and rv32 runs returned identical results: one memoized result served both")
	}
}
