package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/guest"
)

// imageHash fingerprints a built guest image: code, data segments,
// entry point and static instruction count.
func imageHash(t *testing.T, p Program) string {
	t.Helper()
	img, err := p.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", p.Name(), err)
	}
	h := sha256.New()
	h.Write(img.Code)
	for _, seg := range img.Data {
		fmt.Fprintf(h, "|%d:", seg.Addr)
		h.Write(seg.Bytes)
	}
	return fmt.Sprintf("%x|entry=%x|static=%d", h.Sum(nil), img.Entry, img.StaticInst)
}

// TestCatalogMemoized verifies the memoized catalog hands out
// independent copies: mutating one caller's slice must not leak into
// later lookups, and repeated calls must agree entry by entry.
func TestCatalogMemoized(t *testing.T) {
	c1 := Catalog()
	orig := c1[0]
	c1[0].Name = "mutated"
	c1[0].HotKernels = -99
	c2 := Catalog()
	if c2[0].Name != orig.Name || c2[0].HotKernels != orig.HotKernels {
		t.Fatalf("catalog copy aliased: %+v", c2[0])
	}
	if !reflect.DeepEqual(c2, Catalog()) {
		t.Fatal("catalog not stable across calls")
	}
	got, err := ByName(orig.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("ByName(%s) disagrees with catalog entry", orig.Name)
	}
	if _, err := ByName("mutated"); err == nil {
		t.Fatal("mutation leaked into the name index")
	}
}

// TestCatalogInvariants checks unique names, stable order, and that
// every entry builds deterministically: the same Spec must produce an
// identical guest image hash on every Build.
func TestCatalogInvariants(t *testing.T) {
	names1, names2 := Names(), Names()
	if !reflect.DeepEqual(names1, names2) {
		t.Fatal("catalog order not stable")
	}
	seen := map[string]bool{}
	for _, n := range names1 {
		if seen[n] {
			t.Errorf("duplicate benchmark name %q", n)
		}
		seen[n] = true
	}
	for _, s := range Catalog() {
		p := SpecProgram{Spec: s}
		if h1, h2 := imageHash(t, p), imageHash(t, p); h1 != h2 {
			t.Errorf("%s: non-deterministic build: %s vs %s", s.Name, h1, h2)
		}
	}
}

func TestParseSuiteRoundTrip(t *testing.T) {
	for _, su := range Suites() {
		got, err := ParseSuite(su.String())
		if err != nil {
			t.Errorf("ParseSuite(%q): %v", su.String(), err)
		}
		if got != su {
			t.Errorf("ParseSuite(%q) = %v, want %v", su.String(), got, su)
		}
	}
	for alias, want := range map[string]Suite{
		"int": SPECInt, "FP": SPECFP, "physics": Physics, "MEDIA": Media,
	} {
		if got, err := ParseSuite(alias); err != nil || got != want {
			t.Errorf("ParseSuite(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := ParseSuite("nope"); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestSuiteJSONRoundTrip(t *testing.T) {
	spec, err := ByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{spec}
	data, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"SPEC-FP"`)) {
		t.Fatalf("suite not encoded as name: %s", data)
	}
	back, err := decodeSpecs(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, specs) {
		t.Fatalf("spec JSON round-trip mismatch:\n got %+v\nwant %+v", back[0], spec)
	}

	// A legacy numeric suite decodes when it names one of the four
	// suites; any other number is an error, not a "suite?" label.
	for raw, want := range map[string]Suite{"0": SPECInt, "1": SPECFP, "3": Media} {
		got, err := decodeSpecs(bytes.NewReader(bytes.Replace(data, []byte(`"SPEC-FP"`), []byte(raw), 1)))
		if err != nil || got[0].Suite != want {
			t.Errorf("Suite %s: got %v, %v; want %v", raw, got, err, want)
		}
	}
	for _, raw := range []string{"4", "7", "255", "300", "-1", "1.5"} {
		if got, err := decodeSpecs(bytes.NewReader(bytes.Replace(data, []byte(`"SPEC-FP"`), []byte(raw), 1))); err == nil {
			t.Errorf("Suite %s accepted as %v", raw, got[0].Suite)
		}
	}
}

// TestOpenReferences covers the reference grammar: explicit scheme,
// bare catalog name, unknown scheme, unknown benchmark.
func TestOpenReferences(t *testing.T) {
	p, err := Open("synthetic:401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "401.bzip2" || p.Meta().Source != "synthetic" {
		t.Fatalf("got %s/%s", p.Name(), p.Meta().Source)
	}
	bare, err := Open("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if imageHash(t, bare) != imageHash(t, p) {
		t.Fatal("bare reference differs from explicit synthetic:")
	}
	if _, err := Open("nope:x"); err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Fatalf("unknown scheme: %v", err)
	}
	if _, err := Open("synthetic:nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, want := range []string{"synthetic", "file", "trace", "phased"} {
		if _, ok := LookupSource(want); !ok {
			t.Errorf("source %q not registered", want)
		}
	}
}

func TestScaleProgram(t *testing.T) {
	p, err := Open("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ScaleProgram(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaled.(SpecProgram).Spec.OuterIters; got != p.(SpecProgram).Spec.OuterIters*2 {
		t.Fatalf("scale not applied: %d", got)
	}
	tr, err := NewTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScaleProgram(tr.Program(), 2); err == nil {
		t.Fatal("trace program accepted a scale factor")
	}
	if same, err := ScaleProgram(tr.Program(), 1); err != nil || same == nil {
		t.Fatalf("identity scale rejected: %v", err)
	}
}

// TestScaleProgramRejectsBadFactors: a factor that would clamp a count
// to one iteration, or wrap it, is an error for plain and phased
// programs alike; 0 and 1 stay identity.
func TestScaleProgramRejectsBadFactors(t *testing.T) {
	for _, ref := range []string{"462.libquantum", "phased:401.bzip2+462.libquantum"} {
		p, err := Open(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{-5, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1), 1e308, math.MaxInt64} {
			if q, err := ScaleProgram(p, f); err == nil {
				t.Errorf("%s: scale %g accepted (program %v)", ref, f, q)
			}
		}
		for _, f := range []float64{0, 1} {
			if q, err := ScaleProgram(p, f); err != nil || Fingerprint(q) != Fingerprint(p) {
				t.Errorf("%s: scale %g is not identity: %v", ref, f, err)
			}
		}
		if _, err := ScaleProgram(p, 1e6); err != nil {
			t.Errorf("%s: scale 1e6 rejected: %v", ref, err)
		}
	}
}

// TestFileSource loads specs from single-object and multi-spec JSON
// files, including fragment selection and typo rejection.
func TestFileSource(t *testing.T) {
	dir := t.TempDir()
	spec, err := ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "custom.one"
	one := filepath.Join(dir, "one.json")
	// Single-spec files hold a bare object.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(one, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Open("file:" + one)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "custom.one" || p.Meta().Source != "file" {
		t.Fatalf("got %s/%s", p.Name(), p.Meta().Source)
	}
	direct := SpecProgram{Spec: spec}
	if imageHash(t, p) != imageHash(t, direct) {
		t.Fatal("file-loaded spec builds a different image than the in-memory spec")
	}

	spec2 := spec
	spec2.Name = "custom.two"
	many := filepath.Join(dir, "many.json")
	data, err = json.Marshal([]Spec{spec, spec2})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(many, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("file:" + many); err == nil {
		t.Fatal("ambiguous multi-spec file accepted without a fragment")
	}
	p2, err := Open("file:" + many + "#custom.two")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name() != "custom.two" {
		t.Fatalf("fragment selected %s", p2.Name())
	}
	if _, err := Open("file:" + many + "#absent"); err == nil {
		t.Fatal("missing fragment accepted")
	}

	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"Name":"x","HotKernelz":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("file:" + typo); err == nil {
		t.Fatal("unknown field accepted")
	}

	// A second object after the spec is an error, not ignored.
	two := filepath.Join(dir, "two.json")
	if err := os.WriteFile(two, append(EncodeSpec(spec), EncodeSpec(spec2)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("file:" + two); err == nil {
		t.Fatal("second object after the spec accepted")
	}
}

// TestTraceRoundTrip is the record→replay golden test: serializing a
// recorded trace and replaying it through ReadTrace must rebuild the
// guest image byte-identically, repeatedly.
func TestTraceRoundTrip(t *testing.T) {
	p, err := Open("400.perlbench")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name() || back.Source != "synthetic" || back.Suite != "SPEC-INT" {
		t.Fatalf("trace metadata: %+v", back)
	}
	want := imageHash(t, p)
	if got := imageHash(t, back.Program()); got != want {
		t.Fatalf("replayed image differs:\n got %s\nwant %s", got, want)
	}
	// Replays are repeatable and isolated: mutating one build's image
	// must not perturb the next.
	img1, err := back.Program().Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range img1.Code {
		img1.Code[i] = 0xFF
	}
	if got := imageHash(t, back.Program()); got != want {
		t.Fatal("replayed image shares bytes with a previous build")
	}
	// A foreign format is rejected.
	tr2 := *back
	tr2.Format = "darco-trace/999"
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, &tr2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf2); err == nil {
		t.Fatal("wrong format accepted")
	}
	// So are a garbage tail and a field this build does not read, through
	// the trace: source.
	dir := t.TempDir()
	for name, body := range map[string]string{
		"tail":    buf.String() + `]]] {"garbage": tru`,
		"unknown": strings.Replace(buf.String(), "{", `{"no_such_field": 1,`, 1),
	} {
		path := filepath.Join(dir, name+".trace.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open("trace:" + path); err == nil {
			t.Errorf("trace with %s accepted", name)
		}
	}
}

// TestPhasedProgram builds a composite, checks its shape, and runs it
// to completion on the reference emulator: every phase must execute
// and the single final halt must be reached.
func TestPhasedProgram(t *testing.T) {
	p, err := Open("phased:401.bzip2+462.libquantum+429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "401.bzip2+462.libquantum+429.mcf" {
		t.Fatalf("name %q", p.Name())
	}
	meta := p.Meta()
	if meta.Source != "phased" || meta.Phases != 3 {
		t.Fatalf("meta %+v", meta)
	}
	scaled, err := ScaleProgram(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := scaled.(Program).Build()
	if err != nil {
		t.Fatal(err)
	}
	// The composite must be roughly the member sum in static size and
	// strictly larger than any single member.
	single, err := ByName("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := single.Scale(0.1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.StaticInst <= sp.StaticInst {
		t.Fatalf("composite static %d not larger than member %d", img.StaticInst, sp.StaticInst)
	}
	e := emu.New(img)
	if err := e.Run(200_000_000); err != nil {
		t.Fatalf("phased run: %v", err)
	}
	// Dynamic size must exceed the first member alone: later phases ran.
	es := emu.New(sp)
	if err := es.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if e.DynInsts <= es.DynInsts {
		t.Fatalf("composite dyn %d not larger than first member %d", e.DynInsts, es.DynInsts)
	}
	if _, err := Open("phased:401.bzip2+nope"); err == nil {
		t.Fatal("unknown member accepted")
	}
}

// TestPhasedDispatcherTablesDistinct ensures members with dispatchers
// get disjoint jump-table pages (the indirect-branch targets of phase
// i must not alias phase j's).
func TestPhasedDispatcherTablesDistinct(t *testing.T) {
	p, err := Open("phased:400.perlbench+471.omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ScaleProgram(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	img, err := scaled.(Program).Build()
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint32
	for _, seg := range img.Data {
		addrs = append(addrs, seg.Addr)
	}
	if len(addrs) != 2 {
		t.Fatalf("want 2 jump tables, got %d (%v)", len(addrs), addrs)
	}
	if addrs[0] == addrs[1] {
		t.Fatalf("jump tables alias at 0x%x", addrs[0])
	}
	e := emu.New(img)
	if err := e.Run(200_000_000); err != nil {
		t.Fatalf("dispatcher composite run: %v", err)
	}
	if e.DynIndirect == 0 {
		t.Fatal("no indirect branches executed")
	}
}

// TestFuncProgram covers the closure adapter.
func TestFuncProgram(t *testing.T) {
	p := Func("tiny", func() (*guest.Program, error) {
		b := guest.NewBuilder()
		b.MovRI(guest.EAX, 1)
		b.Halt()
		return b.Build()
	})
	if p.Name() != "tiny" || p.Meta().Source != "func" {
		t.Fatalf("func program: %s/%s", p.Name(), p.Meta().Source)
	}
	if _, err := p.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Func("none", nil).Build(); err == nil {
		t.Fatal("nil build accepted")
	}
}

// TestValidateBoundsFileSpecs covers the ranges Validate enforces now
// that specs arrive from arbitrary JSON: a footprint large enough to
// overlap the jump-table region, and negative counts, must be
// rejected before they can build a self-corrupting program.
func TestValidateBoundsFileSpecs(t *testing.T) {
	base, err := ByName("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	huge := base
	huge.Footprint = 1 << 24 // power of two, but overlaps GuestTableBase
	if err := huge.Validate(); err == nil {
		t.Error("oversized footprint accepted")
	}
	atLimit := base
	atLimit.Footprint = maxFootprint
	if err := atLimit.Validate(); err != nil {
		t.Errorf("footprint at the limit rejected: %v", err)
	}
	neg := base
	neg.HotKernels = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative HotKernels accepted")
	}
	frac := base
	frac.MemFrac = 1.5
	if err := frac.Validate(); err == nil {
		t.Error("MemFrac > 1 accepted")
	}
}
