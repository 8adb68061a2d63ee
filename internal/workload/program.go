package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"

	"repro/internal/guest"
	"repro/internal/registry"
)

// The guest-program layer is pluggable: a Program is any named,
// deterministic factory of a guest binary image, and Sources are the
// registry of ways to obtain one — mirroring the tol pass, promotion
// and eviction registries. A workload reference is "<source>:<name>"
// ("synthetic:470.lbm", "file:mybench.json", "trace:run.trace.json",
// "phased:401.bzip2+462.libquantum"); a bare name defaults to the
// synthetic catalog, so every pre-existing benchmark spelling keeps
// working.

// Meta describes a program's provenance and shape for display and
// interchange: which Source produced it, the suite it belongs to (for
// suite-grouped figures; empty when the notion does not apply) and the
// number of execution phases (1 for everything but phased composites).
type Meta struct {
	Source string `json:"source"`
	Suite  string `json:"suite,omitempty"`
	Phases int    `json:"phases,omitempty"`
	// ISA names the guest frontend the program decodes under. Empty
	// means x86 (the pre-frontend default), keeping older serialized
	// metadata valid; consumers resolve it with guest.LookupISA.
	ISA string `json:"isa,omitempty"`
}

// Program is a named, deterministic guest-program factory: building
// twice must yield byte-identical images, the property every
// determinism and memoization guarantee of the controller rests on.
type Program interface {
	Name() string
	Meta() Meta
	Build() (*guest.Program, error)
}

// scalable is the optional Program extension for workloads whose
// dynamic size can be multiplied without changing their character
// (synthetic specs and phased composites). Trace replays are fixed
// recorded images and deliberately do not implement it. Scale takes a
// finite factor >= 0 and errors when it scales a count past an int.
type scalable interface {
	Program
	Scale(f float64) (Program, error)
}

// fingerprinter is the optional Program extension reporting a stable
// content identity. The controller folds it into memo-cache keys so
// two programs sharing a benchmark name — e.g. two traces recorded
// from the same benchmark at different scales, or a file: spec named
// after a catalog entry — never alias one cached result.
type fingerprinter interface {
	Fingerprint() string
}

// Fingerprint returns the program's content identity: the
// fingerprinter result when implemented, "" otherwise (callers fall
// back to name-based keying, which is only sound for programs whose
// name uniquely determines them).
func Fingerprint(p Program) string {
	if f, ok := p.(fingerprinter); ok {
		return f.Fingerprint()
	}
	return ""
}

// ScaleProgram applies a dynamic-size factor to a program. Factors 0
// and 1 are identity for every program; any other factor requires the
// program to implement scalable and errors otherwise, so a -scale flag
// cannot silently be ignored on a trace replay. A negative, NaN or
// infinite factor, or one that scales a count past an int, is an error
// rather than a program clamped to one iteration.
func ScaleProgram(p Program, f float64) (Program, error) {
	if f == 0 || f == 1 {
		return p, nil
	}
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("workload: scale %g is not a finite factor >= 0", f)
	}
	if s, ok := p.(scalable); ok {
		return s.Scale(f)
	}
	return nil, fmt.Errorf("workload: %s program %q is a fixed image and cannot be scaled (got scale %g)",
		p.Meta().Source, p.Name(), f)
}

// Source resolves names to Programs under one scheme. Implementations
// register themselves with Register; Open dispatches references to
// them.
type Source interface {
	// Scheme is the reference prefix ("synthetic", "file", "trace",
	// "phased").
	Scheme() string
	// Open resolves the part of the reference after "scheme:".
	Open(name string) (Program, error)
}

// Lister is the optional Source extension for schemes whose program
// set is enumerable (the synthetic catalog).
type Lister interface {
	List() []string
}

var sourceRegistry = registry.New[Source]("workload: duplicate source %q")

// DefaultSource is the scheme assumed by Open for bare references
// without a "scheme:" prefix.
const DefaultSource = "synthetic"

// Register adds a workload source to the registry, making its scheme
// available to Open references. Schemes must be unique, non-empty and
// free of the reference separator; like the tol registries this is
// normally called from an init function, but out-of-tree sources are
// fully supported — Program works on the public guest.Program image,
// unlike the closed tol pass IR.
func Register(s Source) {
	scheme := s.Scheme()
	if scheme == "" || strings.ContainsAny(scheme, ":, \t") {
		panic(fmt.Sprintf("workload: invalid source scheme %q", scheme))
	}
	sourceRegistry.Register(scheme, s)
}

func init() {
	Register(syntheticSource{})
	Register(fileSource{})
	Register(traceSource{})
	Register(phasedSource{})
	Register(fuzzSource{})
	Register(rv32Source{})
}

// Sources returns the registered scheme names, sorted.
func Sources() []string { return sourceRegistry.Sorted() }

// LookupSource returns the source registered under a scheme.
func LookupSource(scheme string) (Source, bool) { return sourceRegistry.Lookup(scheme) }

// splitRef splits a workload reference into its scheme and name. A
// bare reference without a separator belongs to DefaultSource, so
// plain catalog names remain valid references.
func splitRef(ref string) (scheme, name string) {
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return DefaultSource, ref
}

// RefForISA maps a workload reference to the given frontend's catalog:
// synthetic-catalog references (bare names included) are redirected to
// the frontend's own source scheme, so "429.mcf" under ISA "rv32"
// resolves to "rv32:429.mcf". Explicit non-catalog references (trace:,
// file:, ...) pass through unchanged — they name a concrete program,
// and the run's darco.Config ISA pin rejects any frontend mismatch.
func RefForISA(ref, isa string) string {
	if isa == "" || isa == "x86" {
		return ref
	}
	if scheme, name := splitRef(ref); scheme == DefaultSource {
		return isa + ":" + name
	}
	return ref
}

// Open resolves a "<source>:<name>" workload reference through the
// registry. The name part may itself contain separators (file paths,
// fragment selectors); only the first one delimits the scheme.
func Open(ref string) (Program, error) {
	scheme, name := splitRef(ref)
	src, ok := sourceRegistry.Lookup(scheme)
	if !ok {
		return nil, fmt.Errorf("workload: unknown source %q in reference %q (registered: %s)",
			scheme, ref, strings.Join(Sources(), ", "))
	}
	p, err := src.Open(name)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// OpenScaled opens a workload reference and applies a dynamic-size
// factor to the program (Open, then ScaleProgram).
func OpenScaled(ref string, scale float64) (Program, error) {
	p, err := Open(ref)
	if err != nil {
		return nil, err
	}
	return ScaleProgram(p, scale)
}

// SpecProgram adapts a synthetic Spec to the Program interface. Source
// records which scheme produced the spec ("synthetic" for catalog
// entries, "file" for JSON-loaded ones); the zero value means
// "synthetic".
type SpecProgram struct {
	Spec   Spec
	Source string
}

// Name returns the spec's benchmark name.
func (p SpecProgram) Name() string { return p.Spec.Name }

// Meta describes the spec's provenance and suite.
func (p SpecProgram) Meta() Meta {
	src := p.Source
	if src == "" {
		src = DefaultSource
	}
	return Meta{Source: src, Suite: p.Spec.Suite.String(), Phases: 1, ISA: p.Spec.ISA}
}

// Build synthesizes the spec's guest program.
func (p SpecProgram) Build() (*guest.Program, error) { return p.Spec.Build() }

// Scale implements scalable by scaling the underlying spec.
func (p SpecProgram) Scale(f float64) (Program, error) {
	if err := p.Spec.checkScale(f); err != nil {
		return nil, err
	}
	return SpecProgram{Spec: p.Spec.Scale(f), Source: p.Source}, nil
}

// Fingerprint hashes the full parameter set: Spec is a pure value
// type, so its rendered form identifies the generated program exactly.
func (p SpecProgram) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("spec|%+v", p.Spec)))
	return fmt.Sprintf("%x", sum[:8])
}

// syntheticSource resolves catalog benchmark names.
type syntheticSource struct{}

func (syntheticSource) Scheme() string { return "synthetic" }

func (syntheticSource) Open(name string) (Program, error) {
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return SpecProgram{Spec: spec}, nil
}

// List enumerates the catalog.
func (syntheticSource) List() []string { return Names() }

// funcProgram adapts a bare build closure (tests, examples,
// hand-assembled programs).
type funcProgram struct {
	name  string
	build func() (*guest.Program, error)
}

// Func adapts a name and a deterministic build closure to the Program
// interface — the bridge for callers that assemble guest programs by
// hand rather than through a registered source.
func Func(name string, build func() (*guest.Program, error)) Program {
	return funcProgram{name: name, build: build}
}

func (p funcProgram) Name() string { return p.name }
func (p funcProgram) Meta() Meta   { return Meta{Source: "func", Phases: 1} }
func (p funcProgram) Build() (*guest.Program, error) {
	if p.build == nil {
		return nil, fmt.Errorf("workload: program %q has no build function", p.name)
	}
	return p.build()
}
