package guest

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/registry"
)

// ISA describes one guest instruction-set frontend: how its encodings
// decode into the shared Inst form, the shape of its register file,
// and how a fresh machine is initialized. Everything above this seam —
// the canonical step semantics, the reference emulator, the decode
// cache, the TOL translator tiers — is ISA-agnostic and consumes the
// frontend through this description. Frontends register themselves in
// an init-time registry (RegisterISA), mirroring the tol.Pass and
// workload.Source registries, and are selected by name through
// Program.ISA (empty means x86).
type ISA struct {
	// Name is the registry key ("x86", "rv32").
	Name string

	// MaxInstSize is the longest encoding in bytes (at most 8).
	MaxInstSize int

	// InstShift is log2 of the instruction alignment: 0 for
	// variable-length byte-aligned encodings, 2 for fixed four-byte
	// ones. The DecodeCache uses it to index with the PC's significant
	// bits, so fixed-length frontends don't waste 3/4 of the cache.
	InstShift uint

	// NumRegs is how many integer registers the frontend exposes
	// (at most MaxGuestRegs).
	NumRegs int

	// HasFlags reports whether the frontend has an architectural
	// condition-flags register. Flagless frontends keep State.Flags
	// zero and branch via compare-and-branch opcodes.
	HasFlags bool

	// HasFP reports whether the frontend uses the FP register file.
	HasFP bool

	// DecodeAt decodes the instruction whose encoding starts at b and
	// whose address is pc. The pc parameter lets PC-relative
	// constructions (RV32I auipc) fold their address at decode time;
	// decoded instructions are only ever cached keyed by their exact
	// address, so the fold is safe.
	DecodeAt func(b []byte, pc uint32) (Inst, error)

	// RegName names integer register r in divergence reports.
	RegName func(r int) string

	// InitState establishes the frontend's initial architectural state
	// for a program entered at entry (stack pointer setup differs per
	// ISA; everything else starts zero).
	InitState func(s *State, entry uint32)
}

// Step executes one instruction at s.EIP under this frontend. It is
// the uncached reference path; hot loops use DecodeCache.Step.
func (isa *ISA) Step(s *State, m mem.Memory, res *StepResult) error {
	var buf [8]byte
	inst, err := isa.fetchDecode(buf[:isa.MaxInstSize], s.EIP, m)
	if err != nil {
		return fmt.Errorf("at eip=%#x: %w", s.EIP, err)
	}
	return stepDecoded(s, m, &inst, res)
}

// fetchDecode reads the encoding at eip into buf (MaxInstSize bytes)
// and decodes it — the one guest fetch+decode loop, behind ISA.Step
// and every DecodeCache miss. The error is the decoder's own; callers
// add the address.
func (isa *ISA) fetchDecode(buf []byte, eip uint32, m mem.Memory) (Inst, error) {
	for i := range buf {
		buf[i] = m.Read8(eip + uint32(i))
	}
	return isa.DecodeAt(buf, eip)
}

// X86 is the original variable-length CISC frontend, the paper's
// guest. Its decoder lives in encode.go.
var X86 = &ISA{
	Name:        "x86",
	MaxInstSize: MaxInstSize,
	InstShift:   0,
	NumRegs:     NumRegs,
	HasFlags:    true,
	HasFP:       true,
	DecodeAt:    func(b []byte, pc uint32) (Inst, error) { return decode(b) },
	RegName:     func(r int) string { return Reg(r).String() },
	InitState: func(s *State, entry uint32) {
		*s = State{EIP: entry}
		s.Regs[ESP] = mem.GuestStackTop
	},
}

var isaRegistry = registry.New[*ISA]("guest: ISA %q registered twice")

// RegisterISA adds a frontend to the registry. Like the workload
// source registry, registration happens in init functions and panics
// on conflicts — a duplicate name is a programming error.
func RegisterISA(isa *ISA) {
	if isa.Name == "" {
		panic("guest: RegisterISA with empty name")
	}
	if isa.NumRegs > MaxGuestRegs {
		panic(fmt.Sprintf("guest: ISA %q has %d registers, State holds %d", isa.Name, isa.NumRegs, MaxGuestRegs))
	}
	isaRegistry.Register(isa.Name, isa)
}

// LookupISA resolves a frontend by name. The empty name is the x86
// default, so pre-ISA programs and configs keep their meaning.
func LookupISA(name string) (*ISA, error) {
	if name == "" {
		return X86, nil
	}
	if isa, ok := isaRegistry.Lookup(name); ok {
		return isa, nil
	}
	return nil, fmt.Errorf("guest: unknown ISA %q (registered: %v)", name, ISANames())
}

// ISANames lists the registered frontends in sorted order.
func ISANames() []string { return isaRegistry.Sorted() }

// ISAOf resolves a program's frontend (empty Program.ISA means x86).
func ISAOf(p *Program) (*ISA, error) {
	return LookupISA(p.ISA)
}

func init() {
	RegisterISA(X86)
}
