package sample

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/tol"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/bundle.golden from this build (only ever at a commit whose bundles are the reference)")

func rv32Loop(n int32) *guest.Program {
	b := guest.NewRV32Builder()
	b.Li(5, n)
	b.Label("loop")
	b.Addi(6, 6, 3)
	b.Xor(7, 6, 5)
	b.Addi(5, 5, -1)
	b.Blt(0, 5, "loop")
	b.Ebreak()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestBundleGolden pins the bytes of the persisted fast-forward bundle
// — what BlobCache.PutRaw receives — so a change to how checkpoints are
// held in process cannot move what a store already holds. The fixtures
// cover the cosim shadow inside each machine, the RV32I frontend with
// promotion-policy state, and a bounded code cache under eviction.
func TestBundleGolden(t *testing.T) {
	fixtures := []struct {
		name string
		prog *guest.Program
		cfg  func(*tol.Config)
	}{
		{"x86-cosim", fibProgram(500), func(c *tol.Config) { c.Cosim = true }},
		{"rv32-cosim-adaptive", rv32Loop(1000), func(c *tol.Config) {
			c.Cosim = true
			c.Promotion = "adaptive"
		}},
		{"x86-lru256", fibProgram(500), func(c *tol.Config) {
			c.Cosim = false
			c.Cache = tol.CacheConfig{CapacityInsts: 256, Policy: "lru-translation"}
		}},
	}
	var got strings.Builder
	for _, f := range fixtures {
		r := testRunner(2)
		f.cfg(&r.TOL)
		cache := &memCache{}
		r.Program, r.Cache = f.name, cache
		if _, err := r.Run(t.Context(), f.prog); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(cache.m) != 1 {
			t.Fatalf("%s: %d bundles stored, want 1", f.name, len(cache.m))
		}
		for _, raw := range cache.m {
			fmt.Fprintf(&got, "%s %d %x\n", f.name, len(raw), sha256.Sum256(raw))
		}
	}

	path := filepath.Join("testdata", "bundle.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("bundle digests differ from %s\n got:\n%s want:\n%s", path, got.String(), want)
	}
}
