package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/guest"
	"repro/internal/mem"
)

// RV32I benchmark generator: the same structural knobs as the x86
// generator (cold/warm/hot regions, a jump-table dispatcher, masked or
// hash-indexed data accesses), emitted as real RV32I encodings through
// guest.RV32Builder. FP fractions are rejected by Validate (RV32I has
// no FP); the Irregular hash uses an xorshift mix instead of the x86
// golden-ratio multiply, since RV32I (without the M extension) has no
// multiplier.
//
// Register plan:
//
//	x1  ra (kernel calls, case helper)
//	x2  sp (loader convention; unused by generated code)
//	x5  outer loop counter
//	x6  inner loop counter (kernels, dispatcher)
//	x7  rotating data index
//	x8  data base pointer (never clobbered)
//	x9  dispatcher case index / accumulator
//	x10, x11  scratch for generated bodies
//	x12, x13  address computation scratch
//
// RV32I conditional branches reach only ±4 KiB, so every loop back
// edge and long forward skip goes through the inverted-branch + jal
// idiom (jal reaches ±1 MiB); generated regions can exceed a branch's
// range but not a jump's.

const (
	rvRA    = 1
	rvOuter = 5
	rvInner = 6
	rvIdx   = 7
	rvBase  = 8
	rvCase  = 9
	rvScrA  = 10
	rvScrB  = 11
	rvAddr  = 12
	rvMask  = 13
)

// rv32LoopBack decrements counter and jumps back to target while it is
// still positive, using the long-range idiom.
func rv32LoopBack(b *guest.RV32Builder, counter int, target string) {
	done := fmt.Sprintf("%s_done_%d", target, b.InstCount())
	b.Addi(counter, counter, -1)
	b.Bge(0, counter, done) // counter <= 0: fall out of the loop
	b.Jal(0, target)
	b.Label(done)
}

// buildRV32 synthesizes the RV32I form of the spec.
func (s Spec) buildRV32() (*guest.Program, error) {
	r := rand.New(rand.NewSource(s.Seed))
	b := guest.NewRV32Builder()
	lbl := func(name string) string { return name }

	b.Li(rvBase, int32(mem.GuestDataBase))
	b.Li(rvIdx, 0)
	b.Li(rvCase, 0)
	b.Li(rvScrA, int32(r.Uint32()))
	b.Li(rvScrB, int32(r.Uint32()))

	// Cold one-shot blocks, separated by jumps like the x86 generator.
	for c := 0; c < s.ColdBlocks; c++ {
		s.emitRV32Body(b, r, s.ColdLen, 0.3)
		b.Jal(0, lbl(fmt.Sprintf("cold%d", c)))
		b.Label(lbl(fmt.Sprintf("cold%d", c)))
	}

	// Warm-region countdown in memory at Footprint+64 (past the
	// working set, clear of the jump tables — same slot as x86).
	warmCount := int32(s.Footprint + 64)
	warmAddr := func() { // rvAddr = &counter
		b.Li(rvAddr, warmCount)
		b.Add(rvAddr, rvAddr, rvBase)
	}
	b.Li(rvScrA, int32(s.WarmIters))
	warmAddr()
	b.Sw(rvScrA, rvAddr, 0)

	b.Li(rvOuter, int32(s.OuterIters))
	b.Label(lbl("outer"))

	// Hot kernels.
	for k := 0; k < s.HotKernels; k++ {
		if s.UseCalls {
			b.Jal(rvRA, lbl(fmt.Sprintf("kernel%d", k)))
		} else {
			b.Li(rvInner, int32(s.KernelIter))
			b.Label(lbl(fmt.Sprintf("kloop%d", k)))
			s.emitRV32Body(b, r, s.KernelLen, s.MemFrac)
			b.Addi(rvIdx, rvIdx, 1)
			rv32LoopBack(b, rvInner, lbl(fmt.Sprintf("kloop%d", k)))
		}
	}

	// Warm region: executed only while its countdown is positive.
	if s.WarmBlocks > 0 {
		warmAddr()
		b.Lw(rvScrA, rvAddr, 0)
		b.Blt(0, rvScrA, lbl("warmgo")) // counter > 0: run the region
		b.Jal(0, lbl("warmskip"))
		b.Label(lbl("warmgo"))
		b.Addi(rvScrA, rvScrA, -1)
		b.Sw(rvScrA, rvAddr, 0)
		for w := 0; w < s.WarmBlocks; w++ {
			s.emitRV32Body(b, r, s.WarmLen, 0.3)
			b.Jal(0, lbl(fmt.Sprintf("warm%d", w)))
			b.Label(lbl(fmt.Sprintf("warm%d", w)))
		}
		b.Label(lbl("warmskip"))
	}

	// Dispatcher: indirect jumps (jalr x0) through a jump table.
	if s.Fanout > 0 && s.DispatchIters > 0 {
		b.Li(rvInner, int32(s.DispatchIters))
		b.Label(lbl("dispatch"))
		b.Li(rvScrA, int32(mem.GuestTableBase))
		b.Slli(rvAddr, rvCase, 2)
		b.Add(rvScrA, rvScrA, rvAddr)
		b.Lw(rvScrA, rvScrA, 0)
		b.Jalr(0, rvScrA, 0)
		for c := 0; c < s.Fanout; c++ {
			b.Label(lbl(fmt.Sprintf("case%d", c)))
			s.emitRV32Body(b, r, 4+c%5, 0.25)
			if s.CaseCalls {
				b.Jal(rvRA, lbl("casehelper"))
			}
			b.Jal(0, lbl("dispjoin"))
		}
		b.Label(lbl("dispjoin"))
		b.Addi(rvCase, rvCase, 1)
		b.Li(rvAddr, int32(s.Fanout))
		b.Blt(rvCase, rvAddr, lbl("dispnowrap"))
		b.Li(rvCase, 0)
		b.Label(lbl("dispnowrap"))
		rv32LoopBack(b, rvInner, lbl("dispatch"))
	}

	rv32LoopBack(b, rvOuter, lbl("outer"))
	b.Ebreak()

	// Kernel bodies as functions.
	if s.UseCalls {
		for k := 0; k < s.HotKernels; k++ {
			b.Label(lbl(fmt.Sprintf("kernel%d", k)))
			b.Li(rvInner, int32(s.KernelIter))
			b.Label(lbl(fmt.Sprintf("kbody%d", k)))
			s.emitRV32Body(b, r, s.KernelLen, s.MemFrac)
			b.Addi(rvIdx, rvIdx, 1)
			rv32LoopBack(b, rvInner, lbl(fmt.Sprintf("kbody%d", k)))
			b.Jalr(0, rvRA, 0) // ret
		}
	}
	if s.Fanout > 0 && s.CaseCalls {
		b.Label(lbl("casehelper"))
		s.emitRV32Body(b, r, 5, 0.3)
		b.Jalr(0, rvRA, 0)
	}

	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}

	// Jump table data (case addresses are exact under the fixed-width
	// encoding, no post-layout resolution pass needed).
	if s.Fanout > 0 {
		raw := make([]byte, 4*s.Fanout)
		for c := 0; c < s.Fanout; c++ {
			a, ok := b.AddrOf(lbl(fmt.Sprintf("case%d", c)))
			if !ok {
				return nil, fmt.Errorf("workload %s: case label %d missing", s.Name, c)
			}
			raw[4*c+0] = byte(a)
			raw[4*c+1] = byte(a >> 8)
			raw[4*c+2] = byte(a >> 16)
			raw[4*c+3] = byte(a >> 24)
		}
		p.Data = append(p.Data, guest.DataSeg{Addr: mem.GuestTableBase, Bytes: raw})
	}
	return p, nil
}

// emitRV32Body is the RV32I analog of emitBody: n mostly-straight-line
// instructions mixing integer ALU and memory operations with short
// forward conditional branches, touching data through rvBase+masked
// index. Only the scratch registers are clobbered.
func (s Spec) emitRV32Body(b *guest.RV32Builder, r *rand.Rand, n int, memFrac float64) {
	brFrac := s.BranchFrac
	mask := int32(1024 - 1)
	if s.Footprint > 0 {
		mask = int32(s.Footprint - 1)
	}
	stride := int32(4)
	if s.Stride != 0 {
		stride = int32(s.Stride)
	}
	for i := 0; i < n; i++ {
		x := r.Float64()
		switch {
		case x < brFrac:
			// Short forward skip over two instructions, direction
			// data-dependent.
			l := fmt.Sprintf("skip_%d", b.InstCount())
			switch r.Intn(4) {
			case 0:
				b.Beq(rvScrA, 0, l)
			case 1:
				b.Bne(rvScrA, 0, l)
			case 2:
				b.Blt(rvScrA, 0, l)
			default:
				b.Bge(rvScrA, 0, l)
			}
			b.Addi(rvScrB, rvScrB, int32(r.Intn(64)))
			b.Xor(rvScrA, rvScrA, rvScrB)
			b.Label(l)
			i += 3
		case x < brFrac+memFrac:
			if s.Irregular {
				// Hash-indexed access via an xorshift mix of the index
				// (RV32I has no multiplier for the x86 generator's
				// golden-ratio hash); defeats the stride prefetcher the
				// same way.
				b.Addi(rvAddr, rvIdx, int32(r.Intn(2048)))
				b.Slli(rvMask, rvAddr, 13)
				b.Xor(rvAddr, rvAddr, rvMask)
				b.Srli(rvMask, rvAddr, 7)
				b.Xor(rvAddr, rvAddr, rvMask)
				b.Li(rvMask, mask&^3)
				b.And(rvAddr, rvAddr, rvMask)
				b.Add(rvAddr, rvAddr, rvBase)
				if r.Intn(2) == 0 {
					b.Lw(rvScrB, rvAddr, 0)
				} else {
					b.Li(rvScrB, int32(r.Uint32()))
					b.Sw(rvScrB, rvAddr, 0)
					i++
				}
				i += 7
			} else {
				// Masked strided access: rvAddr = base + ((idx << log2
				// stride) & mask).
				b.Slli(rvAddr, rvIdx, log2i(stride))
				b.Li(rvMask, mask&^3)
				b.And(rvAddr, rvAddr, rvMask)
				b.Add(rvAddr, rvAddr, rvBase)
				if r.Intn(2) == 0 {
					b.Lw(rvScrB, rvAddr, 0)
				} else {
					b.Sw(rvScrB, rvAddr, 0)
				}
				i += 4
			}
		default:
			switch r.Intn(8) {
			case 0:
				b.Add(rvScrA, rvScrA, rvScrB)
			case 1:
				b.Addi(rvScrB, rvScrB, -int32(r.Intn(100)))
			case 2:
				b.Xor(rvScrA, rvScrA, rvScrB)
			case 3:
				b.Slli(rvScrA, rvScrA, int32(1+r.Intn(7)))
			case 4:
				b.Addi(rvScrB, rvScrA, 0) // mv
			case 5:
				b.Andi(rvScrA, rvScrA, int32(r.Intn(2048)))
			case 6:
				b.Addi(rvScrB, rvScrB, 1)
			default:
				b.Or(rvScrB, rvScrB, rvScrA)
			}
		}
	}
}

// rv32CatalogNames is the starter RV32I catalog: the subset of the
// synthetic catalog ported to the RV32I frontend (integer-flavored
// entries; FP fractions are cleared in the port since RV32I has no
// FP). The set deliberately includes the indirect-branch outlier
// (400.perlbench) so the IBTC path is exercised under the second
// frontend.
var rv32CatalogNames = []string{
	"400.perlbench",
	"401.bzip2",
	"429.mcf",
	"458.sjeng",
	"462.libquantum",
	"998.specrand",
}

// RV32Catalog returns the RV32I starter catalog specs.
func RV32Catalog() []Spec {
	out := make([]Spec, 0, len(rv32CatalogNames))
	for _, name := range rv32CatalogNames {
		s, err := ByName(name)
		if err != nil {
			panic(fmt.Sprintf("workload: rv32 catalog references unknown benchmark %q", name))
		}
		out = append(out, rv32Port(s))
	}
	return out
}

// CatalogFor returns the default benchmark set of a run pinned to the
// given guest ISA: the RV32I frontend ships a starter subset of the
// catalog (sweeping the full x86 catalog under it would fail on every
// unported entry); every other pin, including none, selects the full
// catalog.
func CatalogFor(isa string) []Spec {
	if isa == "rv32" {
		return RV32Catalog()
	}
	return Catalog()
}

// rv32Port converts a catalog spec to its RV32I form.
func rv32Port(s Spec) Spec {
	s.ISA = "rv32"
	s.FPFrac = 0 // RV32I has no FP
	return s
}

// rv32Source resolves "rv32:<name>" references to the RV32I port of a
// starter-catalog benchmark. The program keeps the benchmark's name —
// "synthetic:429.mcf" and "rv32:429.mcf" are the same benchmark under
// two frontends — so results land on the same figure rows; memo and
// store keys disambiguate via Meta.ISA and the spec fingerprint.
type rv32Source struct{}

func (rv32Source) Scheme() string { return "rv32" }

func (rv32Source) Open(name string) (Program, error) {
	for _, n := range rv32CatalogNames {
		if n == name {
			s, err := ByName(name)
			if err != nil {
				return nil, err
			}
			return SpecProgram{Spec: rv32Port(s), Source: "rv32"}, nil
		}
	}
	return nil, fmt.Errorf("workload: rv32 source: %q is not in the RV32I starter catalog (have: %v)",
		name, rv32CatalogNames)
}

// List enumerates the RV32I starter catalog.
func (rv32Source) List() []string {
	out := append([]string(nil), rv32CatalogNames...)
	sort.Strings(out)
	return out
}
