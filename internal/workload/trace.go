package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/strictjson"
)

// The trace source implements record/replay: recording captures a
// program's guest binary image and entry state into a JSON file, and
// replay rebuilds that image byte-identically. Because the co-design
// engine is fully deterministic, a replayed image produces the exact
// same tol.Stats as the program it was recorded from under any given
// configuration — which is what makes recorded traces the stable input
// of cross-configuration sweeps (record once, replay under every
// -cc-size/-O point) and of regression pinning across refactors.
//
//	darco -bench 470.lbm -record lbm.trace.json   # record
//	darco -workload trace:lbm.trace.json          # replay

// traceFormat identifies the trace file format; ReadTrace rejects
// files carrying any other format string.
const traceFormat = "darco-trace/1"

// TraceSeg is one initialized data segment of a recorded image. Bytes
// marshals as base64, the encoding/json default.
type TraceSeg struct {
	Addr  uint32 `json:"addr"`
	Bytes []byte `json:"bytes"`
}

// Trace is a recorded guest program: the byte-exact binary image plus
// the entry point it starts from. The remaining entry state is fixed
// by the loader convention (EIP = Entry, ESP = mem.GuestStackTop, all
// other registers zero), so the image and entry point fully determine
// the run's input.
type Trace struct {
	Format string `json:"format"`
	// Name is the replayed program's benchmark name (the recorded
	// program's name), so replay results land on the same rows as the
	// original.
	Name string `json:"name"`
	// Source and Suite record the provenance of the recorded program.
	Source string `json:"recorded_source,omitempty"`
	Suite  string `json:"suite,omitempty"`
	// ISA names the guest frontend the recorded image decodes under.
	// Empty means x86, so traces recorded before the second frontend
	// replay unchanged. Replay refuses a trace whose ISA is not
	// registered — the image's encodings would be misdecoded.
	ISA        string     `json:"isa,omitempty"`
	Entry      uint32     `json:"entry"`
	StaticInst int        `json:"static_inst"`
	Code       []byte     `json:"code"`
	Data       []TraceSeg `json:"data,omitempty"`
}

// NewTrace builds the program once and captures its image.
func NewTrace(p Program) (*Trace, error) {
	img, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: recording %s: %w", p.Name(), err)
	}
	meta := p.Meta()
	t := &Trace{
		Format:     traceFormat,
		Name:       p.Name(),
		Source:     meta.Source,
		Suite:      meta.Suite,
		ISA:        img.ISA,
		Entry:      img.Entry,
		StaticInst: img.StaticInst,
		Code:       append([]byte(nil), img.Code...),
	}
	for _, seg := range img.Data {
		t.Data = append(t.Data, TraceSeg{Addr: seg.Addr, Bytes: append([]byte(nil), seg.Bytes...)})
	}
	return t, nil
}

// Validate checks the structural invariants of a decoded trace.
func (t *Trace) Validate() error {
	if t.Format != traceFormat {
		return fmt.Errorf("workload: trace format %q, want %q", t.Format, traceFormat)
	}
	if t.Name == "" {
		return fmt.Errorf("workload: trace has no name")
	}
	if _, err := guest.LookupISA(t.ISA); err != nil {
		return fmt.Errorf("workload: trace %s: %w (replay would misdecode the image)", t.Name, err)
	}
	if len(t.Code) == 0 || t.StaticInst <= 0 {
		return fmt.Errorf("workload: trace %s has an empty code image", t.Name)
	}
	if t.Entry < mem.GuestCodeBase || t.Entry >= mem.GuestCodeBase+uint32(len(t.Code)) {
		return fmt.Errorf("workload: trace %s entry 0x%x outside its code image", t.Name, t.Entry)
	}
	return nil
}

// Program returns the replay program that rebuilds the recorded image
// byte-identically on every Build.
func (t *Trace) Program() Program { return traceProgram{t} }

// WriteTrace serializes a trace as indented JSON.
func WriteTrace(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrace decodes a trace through strictjson.Decode and validates it.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := strictjson.Decode(r, &t); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// RecordTrace captures a program's image into a trace file.
func RecordTrace(path string, p Program) error {
	t, err := NewTrace(p)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTrace reads a trace file.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: trace source: %w", err)
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	return t, nil
}

// traceProgram replays a recorded image. It is deliberately not
// scalable: the image is fixed.
type traceProgram struct {
	t *Trace
}

func (p traceProgram) Name() string { return p.t.Name }

func (p traceProgram) Meta() Meta {
	return Meta{Source: "trace", Suite: p.t.Suite, Phases: 1, ISA: p.t.ISA}
}

// Fingerprint hashes the recorded image, so two traces sharing a
// benchmark name (e.g. recorded at different scales) key differently
// in the controller's memo cache.
func (p traceProgram) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "trace|%x|%d|", p.t.Entry, p.t.StaticInst)
	if p.t.ISA != "" {
		// Folded in only when set so x86 traces (ISA empty) keep the
		// fingerprints persisted stores already key on.
		fmt.Fprintf(h, "isa=%s|", p.t.ISA)
	}
	h.Write(p.t.Code)
	for _, seg := range p.t.Data {
		fmt.Fprintf(h, "|%d:", seg.Addr)
		h.Write(seg.Bytes)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// Build rebuilds the recorded image. The returned program carries
// fresh copies of the code and data bytes, so no caller can perturb
// the recording between replays.
func (p traceProgram) Build() (*guest.Program, error) {
	img := &guest.Program{
		Entry:      p.t.Entry,
		Code:       append([]byte(nil), p.t.Code...),
		StaticInst: p.t.StaticInst,
		ISA:        p.t.ISA,
	}
	for _, seg := range p.t.Data {
		img.Data = append(img.Data, guest.DataSeg{Addr: seg.Addr, Bytes: append([]byte(nil), seg.Bytes...)})
	}
	return img, nil
}

// traceSource resolves trace file paths.
type traceSource struct{}

func (traceSource) Scheme() string { return "trace" }

func (traceSource) Open(name string) (Program, error) {
	t, err := LoadTrace(name)
	if err != nil {
		return nil, err
	}
	return t.Program(), nil
}
