package workload

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/guest"
	"repro/internal/mem"
)

// The phased source concatenates member benchmarks into one program
// that executes them as distinct sequential phases. Each phase is a
// complete benchmark body (initialization, cold/warm regions, hot
// kernels, dispatcher) with its own label namespace and jump-table
// page; the final halt of every phase but the last is replaced by a
// jump to the next phase's entry. Phase changes retire one working set
// of hot code and bring in another, which is exactly the access
// pattern that stresses code-cache eviction and retranslation in a way
// no single catalog entry can — a single benchmark's hot set is live
// for the whole run.
//
//	phased:401.bzip2+462.libquantum+429.mcf
//
// Members resolve through the synthetic catalog.

const (
	// maxPhases bounds a composite: each phase owns one jump-table
	// page inside the table region.
	maxPhases = 64
	// phaseTableStride separates per-phase dispatcher jump tables (a
	// page each; the widest allowed fanout needs 64×4 = 256 bytes).
	phaseTableStride = 0x1000
	// phaseSep separates member names in a phased reference.
	phaseSep = "+"
)

// phasedSource resolves "+"-separated catalog member lists.
type phasedSource struct{}

func (phasedSource) Scheme() string { return "phased" }

func (phasedSource) Open(name string) (Program, error) {
	var members []Spec
	for _, n := range strings.Split(name, phaseSep) {
		spec, err := ByName(strings.TrimSpace(n))
		if err != nil {
			return nil, fmt.Errorf("workload: phased member: %w", err)
		}
		members = append(members, spec)
	}
	return Phased("", members...)
}

// Phased composes member specs into a multi-phase Program. An empty
// name derives the canonical "a+b+c" member join; the member count is
// bounded by maxPhases.
func Phased(name string, members ...Spec) (Program, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("workload: phased program needs at least one member")
	}
	if len(members) > maxPhases {
		return nil, fmt.Errorf("workload: phased program has %d members, max %d", len(members), maxPhases)
	}
	if name == "" {
		names := make([]string, len(members))
		for i, m := range members {
			names[i] = m.Name
		}
		name = strings.Join(names, phaseSep)
	}
	return phasedProgram{name: name, members: append([]Spec(nil), members...)}, nil
}

type phasedProgram struct {
	name    string
	members []Spec
}

func (p phasedProgram) Name() string { return p.name }

func (p phasedProgram) Meta() Meta {
	return Meta{Source: "phased", Phases: len(p.members)}
}

// Scale implements scalable by scaling every member.
func (p phasedProgram) Scale(f float64) (Program, error) {
	scaled := make([]Spec, len(p.members))
	for i, m := range p.members {
		if err := m.checkScale(f); err != nil {
			return nil, err
		}
		scaled[i] = m.Scale(f)
	}
	return phasedProgram{name: p.name, members: scaled}, nil
}

// Fingerprint hashes the member parameter sets in phase order.
func (p phasedProgram) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "phased|%s", p.name)
	for _, m := range p.members {
		fmt.Fprintf(h, "|%+v", m)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func phaseLabel(i int) string { return fmt.Sprintf("phase%d", i) }

// Build emits every member into one shared builder. Member data
// regions overlap deliberately (each phase re-initializes what it
// reads); jump tables get one page each.
func (p phasedProgram) Build() (*guest.Program, error) {
	b := guest.NewBuilder()
	b.Label("start")
	var tables []*pendingTable
	for i, m := range p.members {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("workload %s: phase %d: %w", p.name, i, err)
		}
		if i > 0 {
			b.Label(phaseLabel(i))
		}
		next := ""
		if i+1 < len(p.members) {
			next = phaseLabel(i + 1)
		}
		tbl := m.emitInto(b, emitCtx{
			prefix:    fmt.Sprintf("p%d_", i),
			tableBase: mem.GuestTableBase + uint32(i)*phaseTableStride,
			next:      next,
		})
		if tbl != nil {
			tables = append(tables, tbl)
		}
	}
	img, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.name, err)
	}
	for _, tbl := range tables {
		seg, err := tbl.resolve(b)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", p.name, err)
		}
		img.Data = append(img.Data, seg)
	}
	return img, nil
}
