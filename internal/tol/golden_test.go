package tol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/*.golden from this build (only ever at a commit whose streams and snapshots are the reference)")

// streamGoldenCase is one (program, config) pair of the committed
// stream golden.
type streamGoldenCase struct {
	name  string
	ref   string // workload reference, built at scale; "" = GenSpec(seed, profile)
	scale float64
	seed  int64
	prof  string
	cfg   func(*Config)
}

// streamGoldenCases covers every emitter of the cost model and every
// tier of translated execution: IM only, BBM only, the default
// pipeline with superblocks and IBTC fills, O3 under eviction pressure
// (Evict, retranslation, chain repair, IBTC unlink), the flagless
// fixed-width frontend, and two generated translator stressors.
var streamGoldenCases = []streamGoldenCase{
	{name: "im-only", ref: "429.mcf", scale: 0.02, cfg: func(c *Config) { c.BBThreshold = 1 << 30 }},
	{name: "O0", ref: "401.bzip2", scale: 0.2, cfg: func(c *Config) { mustOpt(c, 0) }},
	{name: "O2-default", ref: "400.perlbench", scale: 0.5, cfg: func(c *Config) {}},
	{name: "O3-lru256", ref: "445.gobmk", scale: 0.5, cfg: churnConfig},
	{name: "rv32", ref: "rv32:429.mcf", scale: 0.5, cfg: func(c *Config) {}},
	{name: "rv32-O3-lru256", ref: "rv32:400.perlbench", scale: 0.5, cfg: churnConfig},
	{name: "genspec-mixed-O3-lru256", seed: 20162, prof: "mixed", cfg: churnConfig},
	{name: "genspec-indirect-O3-lru256", seed: 20163, prof: "indirect", cfg: churnConfig},
}

func mustOpt(c *Config, level int) {
	if err := ApplyOptLevel(c, level); err != nil {
		panic(err)
	}
}

// churnConfig is the translate_churn shape: O3, 256-slot cache,
// lru-translation eviction.
func churnConfig(c *Config) {
	mustOpt(c, 3)
	c.Cache = CacheConfig{CapacityInsts: 256, Policy: "lru-translation"}
}

func (tc *streamGoldenCase) program(t *testing.T) *guest.Program {
	t.Helper()
	if tc.ref == "" {
		spec, err := workload.GenSpec(tc.seed, tc.prof)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Clamp(40_000).Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wp, err := workload.Open(tc.ref)
	if err != nil {
		t.Fatal(err)
	}
	if wp, err = workload.ScaleProgram(wp, tc.scale); err != nil {
		t.Fatal(err)
	}
	p, err := wp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// streamDigest drains the engine through Next and hashes every field of
// every delivered instruction.
func streamDigest(e *Engine) (sum string, n int, err error) {
	h := sha256.New()
	b2u := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	var d timing.DynInst
	var rec [24]byte
	for e.Next(&d) {
		binary.LittleEndian.PutUint32(rec[0:], d.PC)
		rec[4], rec[5], rec[6] = byte(d.Class), byte(d.Owner), byte(d.Comp)
		rec[7], rec[8], rec[9] = d.Dst, d.Src1, d.Src2
		rec[10], rec[11] = b2u(d.IsLoad), b2u(d.IsStore)
		binary.LittleEndian.PutUint32(rec[12:], d.MemAddr)
		rec[16], rec[17], rec[18], rec[19] = b2u(d.IsBranch), b2u(d.IsCond), b2u(d.IsIndirect), b2u(d.Taken)
		binary.LittleEndian.PutUint32(rec[20:], d.Target)
		h.Write(rec[:])
		n++
	}
	if err := e.Err(); err != nil {
		return "", n, err
	}
	if !e.Halted() {
		return "", n, errors.New("engine did not halt")
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n, nil
}

// TestStreamGolden pins the complete dynamic instruction stream — PC,
// class, Owner/Comp attribution, scoreboard registers (the cost
// model's register rotation), memory addresses and branch outcomes of
// every instruction — against digests committed from the reference
// build. bench/golden.json pins counts and cycles; this pins the
// content a stream-emission rewrite could silently reorder.
func TestStreamGolden(t *testing.T) {
	path := filepath.Join("testdata", "stream.golden")
	var got strings.Builder
	for _, tc := range streamGoldenCases {
		cfg := DefaultConfig()
		cfg.Cosim = false
		tc.cfg(&cfg)
		sum, n, err := streamDigest(NewEngine(cfg, tc.program(t)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "%s %d %s\n", tc.name, n, sum)
	}
	checkGolden(t, path, got.String())
}

// checkGolden compares got with the committed golden file, or rewrites
// the file under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("digests differ from %s\n got:\n%s want:\n%s", path, got, want)
	}
}

// TestSnapshotGolden pins the serialized form of a mid-run snapshot —
// every touched HostMem page, the sparse translation-table slots with
// their tombstones, the code-cache arena and free map — against
// digests committed from the reference build, for the snapshot
// round-trip fixtures and the eviction-heavy stream cases. Storage
// behind transTable, IBTC and CodeCache may change; what a snapshot of
// the same run state contains may not.
func TestSnapshotGolden(t *testing.T) {
	type fixture struct {
		name string
		p    *guest.Program
		cfg  Config
	}
	var fixtures []fixture
	for _, f := range snapshotFixtures {
		p, cfg := snapshotFixture(t, f.name)
		fixtures = append(fixtures, fixture{f.name, p, cfg})
	}
	for _, tc := range streamGoldenCases {
		if strings.HasSuffix(tc.name, "lru256") {
			cfg := DefaultConfig()
			cfg.Cosim = false
			tc.cfg(&cfg)
			fixtures = append(fixtures, fixture{tc.name, tc.program(t), cfg})
		}
	}
	var got strings.Builder
	for _, f := range fixtures {
		ref := NewEngine(f.cfg, f.p)
		if err := ref.Run(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		e := NewEngine(f.cfg, f.p)
		e.SetStopAfter(ref.Stats.DynTotal() / 2)
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !e.Paused() {
			t.Fatalf("%s: engine did not pause", f.name)
		}
		sn, err := e.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		blob, err := json.Marshal(sn)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", f.name, len(blob), sha256.Sum256(blob))
	}
	checkGolden(t, filepath.Join("testdata", "snapshot.golden"), got.String())
}
