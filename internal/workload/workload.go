// Package workload provides the guest programs used to characterize
// TOL, behind a pluggable Program interface with a Source registry
// (see program.go): synthetic: generates the 48-benchmark catalog,
// file: loads spec definitions from JSON, trace: records and replays
// exact guest images, and phased: composes members into multi-phase
// programs. This file is the synthetic generator.
//
// Real SPEC CPU2006 / Mediabench / Physicsbench x86 binaries are not
// available to this reproduction (see DESIGN.md), so each benchmark is
// synthesized from the structural characteristics the paper identifies
// as the drivers of every result: static code size, dynamic/static
// instruction ratio (and its closeness to the promotion threshold),
// indirect-branch density, instruction mix (INT vs FP), call
// behaviour, and memory footprint.
//
// A generated benchmark has four kinds of code:
//
//   - cold blocks: executed once (initialization) — they stay in IM;
//   - warm blocks: executed a handful of times around IM/BBth — they
//     reach BBM at most;
//   - hot kernels: loops executed far beyond BB/SBth — they are the
//     code SBM optimizes;
//   - a dispatcher: a jump-table loop generating indirect branches at
//     a controlled rate, plus calls/returns.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/guest"
	"repro/internal/mem"
)

// Suite labels mirror the paper's benchmark suites.
type Suite uint8

// Suites.
const (
	SPECInt Suite = iota
	SPECFP
	Physics
	Media
)

var suiteNames = [...]string{"SPEC-INT", "SPEC-FP", "Physicsbench", "Mediabench"}

func (s Suite) String() string {
	if int(s) < len(suiteNames) {
		return suiteNames[s]
	}
	return "suite?"
}

// Suites lists all suites in the paper's order.
func Suites() []Suite {
	return []Suite{SPECInt, SPECFP, Physics, Media}
}

// ParseSuite is the inverse of Suite.String. It accepts the display
// names case-insensitively plus the short aliases the command-line
// tools use (int, fp, physics, media), so ParseSuite(s.String()) == s
// for every suite.
func ParseSuite(name string) (Suite, error) {
	switch strings.ToLower(name) {
	case "int", "spec-int":
		return SPECInt, nil
	case "fp", "spec-fp":
		return SPECFP, nil
	case "physics", "physicsbench":
		return Physics, nil
	case "media", "mediabench":
		return Media, nil
	}
	return 0, fmt.Errorf("workload: unknown suite %q (want int, fp, physics or media)", name)
}

// MarshalJSON encodes the suite as its display name, so file: specs
// read naturally ("Suite": "SPEC-INT") instead of as a bare enum value.
func (s Suite) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts a suite name (any spelling ParseSuite takes)
// or a legacy numeric value of one of the four suites.
func (s *Suite) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return err
		}
		su, err := ParseSuite(name)
		if err != nil {
			return err
		}
		*s = su
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	if int(n) >= len(suiteNames) {
		return fmt.Errorf("workload: unknown suite %d (want int, fp, physics or media, or 0-3)", n)
	}
	*s = Suite(n)
	return nil
}

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name  string
	Suite Suite
	Seed  int64

	// ISA selects the guest frontend the program is generated for:
	// "" or "x86" (the default x86 generator) or "rv32" (the RV32I
	// generator in rv32gen.go). The same structural knobs drive both,
	// so one spec describes the benchmark across frontends.
	ISA string `json:",omitempty"`

	// Hot kernels (SBM-bound code).
	HotKernels int // number of distinct hot loops
	KernelLen  int // straight-line guest instructions per kernel body
	KernelIter int // loop iterations per kernel invocation

	// Outer structure.
	OuterIters int // repetitions of the whole phase sequence

	// Cold and warm code (IM / BBM-bound).
	ColdBlocks int // one-shot initialization blocks
	ColdLen    int
	WarmBlocks int // blocks executed WarmIters times in total
	WarmLen    int
	WarmIters  int // executions of the warm region (IM/BBth ballpark keeps it BBM)

	// Indirect control flow.
	Fanout        int  // jump-table cases in the dispatcher (0 disables)
	DispatchIters int  // dispatcher iterations per outer iteration
	UseCalls      bool // hot kernels invoked via call/ret
	CaseCalls     bool // dispatcher cases call a helper (adds one
	// distinct return target per case, widening the indirect-target set)

	// Instruction mix and memory behaviour of kernels.
	FPFrac     float64 // fraction of FP operations in kernel bodies
	MemFrac    float64 // fraction of memory operations in kernel bodies
	BranchFrac float64 // fraction of short forward conditional branches
	// Footprint is the data working set in bytes (power of two).
	Footprint int
	// Stride is the access stride in bytes within the working set.
	Stride int
	// Irregular makes kernel data accesses hash-indexed instead of
	// strided (pointer-chasing-like), defeating the stride prefetcher —
	// the access behaviour of perlbench/mcf-class applications.
	Irregular bool
}

// maxFootprint bounds a spec's data working set. The guest data
// region spans mem.GuestDataBase to mem.GuestTableBase (16 MiB); the
// bound keeps the footprint plus the warm-region counter behind it
// clear of the jump tables, so a file:-loaded spec cannot define a
// program whose data accesses silently corrupt its own dispatcher.
const maxFootprint = 1 << 23

// Validate checks spec consistency. Specs now also arrive from
// outside the vetted catalog (the file: source decodes arbitrary
// JSON), so ranges are enforced, not assumed.
func (s *Spec) Validate() error {
	switch s.ISA {
	case "", "x86":
	case "rv32":
		// The RV32I frontend has no FP encodings; a spec asking for FP
		// operations under it cannot be generated faithfully.
		if s.FPFrac != 0 {
			return fmt.Errorf("workload %s: FPFrac %g under ISA rv32 (RV32I has no FP)", s.Name, s.FPFrac)
		}
	default:
		return fmt.Errorf("workload %s: unknown ISA %q (want x86 or rv32)", s.Name, s.ISA)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"HotKernels", s.HotKernels}, {"KernelLen", s.KernelLen},
		{"KernelIter", s.KernelIter}, {"OuterIters", s.OuterIters},
		{"ColdBlocks", s.ColdBlocks}, {"ColdLen", s.ColdLen},
		{"WarmBlocks", s.WarmBlocks}, {"WarmLen", s.WarmLen},
		{"WarmIters", s.WarmIters}, {"Fanout", s.Fanout},
		{"DispatchIters", s.DispatchIters}, {"Footprint", s.Footprint},
		{"Stride", s.Stride},
	} {
		if f.v < 0 {
			return fmt.Errorf("workload %s: negative %s %d", s.Name, f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FPFrac", s.FPFrac}, {"MemFrac", s.MemFrac}, {"BranchFrac", s.BranchFrac},
	} {
		if f.v < 0 || f.v > 1 || f.v != f.v {
			return fmt.Errorf("workload %s: %s %g outside [0,1]", s.Name, f.name, f.v)
		}
	}
	if s.Footprint != 0 && s.Footprint&(s.Footprint-1) != 0 {
		return fmt.Errorf("workload %s: footprint %d not a power of two", s.Name, s.Footprint)
	}
	if s.Footprint > maxFootprint {
		return fmt.Errorf("workload %s: footprint %d exceeds MaxFootprint (%d)", s.Name, s.Footprint, maxFootprint)
	}
	if s.Fanout > 64 {
		return fmt.Errorf("workload %s: fanout %d > 64", s.Name, s.Fanout)
	}
	if s.Stride != 0 && s.Stride&(s.Stride-1) != 0 {
		return fmt.Errorf("workload %s: stride %d not a power of two", s.Name, s.Stride)
	}
	// The three fractions partition the kernel body; a sum over 1 would
	// silently skew emitBody's distribution (branches eat the memory
	// share first, then FP). Exactly 1 is a valid all-special-ops body.
	if sum := s.FPFrac + s.MemFrac + s.BranchFrac; sum > 1 {
		return fmt.Errorf("workload %s: FPFrac+MemFrac+BranchFrac = %g > 1", s.Name, sum)
	}
	// The outer loop and kernel loops are do-while shaped: a zero count
	// still executes the body once, which is never what a spec author
	// meant and (for the outer loop) breaks Scale's proportionality.
	if s.OuterIters == 0 {
		return fmt.Errorf("workload %s: OuterIters must be >= 1 (the outer loop is do-while shaped)", s.Name)
	}
	if s.HotKernels > 0 && s.KernelIter == 0 {
		return fmt.Errorf("workload %s: KernelIter must be >= 1 when HotKernels > 0 (kernel loops are do-while shaped)", s.Name)
	}
	// A fanout without dispatcher iterations emits the jump table but
	// never the case blocks it points at, failing only deep in Build
	// ("case label missing"); reject it up front.
	if s.Fanout > 0 && s.DispatchIters == 0 {
		return fmt.Errorf("workload %s: Fanout %d with DispatchIters 0 (jump-table cases would never be emitted)", s.Name, s.Fanout)
	}
	// The warm-region counter lives at Footprint+64 in the data region;
	// it and the working set must stay clear of the jump-table page.
	// maxFootprint implies this today, but the explicit check keeps a
	// future maxFootprint bump from silently letting data accesses
	// corrupt the dispatcher tables.
	if s.Footprint+64+4 > int(mem.GuestTableBase-mem.GuestDataBase) {
		return fmt.Errorf("workload %s: footprint %d (plus warm counter) reaches the jump-table region", s.Name, s.Footprint)
	}
	return nil
}

// Blocks is the minimizer's size metric for a spec: the number of
// distinct generated code regions (cold blocks, warm blocks, hot
// kernels and dispatcher cases). The fuzzing acceptance bar — a
// minimized reproducer with Blocks() <= 8 — is expressed in this unit.
func (s *Spec) Blocks() int {
	return s.ColdBlocks + s.WarmBlocks + s.HotKernels + s.Fanout
}

func log2i(v int32) int32 {
	n := int32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Scale returns a copy with the dynamic-size knobs multiplied by f,
// used to grow or shrink runs without changing their character.
func (s Spec) Scale(f float64) Spec {
	mul := func(v int) int {
		n := int(float64(v) * f)
		if n < 1 {
			n = 1
		}
		return n
	}
	s.OuterIters = mul(s.OuterIters)
	return s
}

// checkScale rejects a factor under which Scale would overflow a
// dynamic-size count.
func (s Spec) checkScale(f float64) error {
	if float64(s.OuterIters)*f >= math.MaxInt {
		return fmt.Errorf("workload %s: scale %g overflows OuterIters %d", s.Name, f, s.OuterIters)
	}
	return nil
}

// emitCtx parameterizes one emission of a Spec into a shared builder.
// A standalone program uses the zero prefix, halts at the end and
// places its dispatcher jump table at mem.GuestTableBase; a phased
// composite gives every member a distinct label prefix and table
// region, and replaces the final halt with a jump to the next phase.
type emitCtx struct {
	prefix    string
	tableBase uint32
	next      string // label to continue at when the phase ends ("" = halt)
}

// pendingTable is a dispatcher jump table whose case addresses can only
// be resolved after the builder's final layout pass.
type pendingTable struct {
	base   uint32
	labels []string
}

// resolve materializes the table as an initialized data segment.
func (t *pendingTable) resolve(b *guest.Builder) (guest.DataSeg, error) {
	raw := make([]byte, 4*len(t.labels))
	for i, label := range t.labels {
		a, ok := b.AddrOf(label)
		if !ok {
			return guest.DataSeg{}, fmt.Errorf("workload: case label %q missing", label)
		}
		raw[4*i+0] = byte(a)
		raw[4*i+1] = byte(a >> 8)
		raw[4*i+2] = byte(a >> 16)
		raw[4*i+3] = byte(a >> 24)
	}
	return guest.DataSeg{Addr: t.base, Bytes: raw}, nil
}

// Build synthesizes the guest program for the spec's frontend.
func (s Spec) Build() (*guest.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.ISA == "rv32" {
		return s.buildRV32()
	}
	b := guest.NewBuilder()
	b.Label("start")
	tbl := s.emitInto(b, emitCtx{tableBase: mem.GuestTableBase})
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	if tbl != nil {
		seg, err := tbl.resolve(b)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
		p.Data = append(p.Data, seg)
	}
	return p, nil
}

// emitInto emits the whole benchmark body — initialization, cold and
// warm regions, hot kernels, dispatcher, and the trailing kernel/helper
// functions — into the builder. It returns the dispatcher's jump table
// (to be resolved after layout) or nil when the spec has no indirect
// control flow. Callers label the entry point and resolve the table.
func (s Spec) emitInto(b *guest.Builder, ctx emitCtx) *pendingTable {
	r := rand.New(rand.NewSource(s.Seed))
	lbl := func(name string) string { return ctx.prefix + name }

	// Register plan (callee-clobber conventions are moot here):
	//   EBP: data base pointer (never clobbered)
	//   EDX: outer loop counter
	//   ECX: inner loop counter (kernels, dispatcher)
	//   ESI: rotating data index
	//   EDI: dispatcher case index / accumulator
	//   EAX, EBX: scratch for generated bodies
	b.MovRI(guest.EBP, int32(mem.GuestDataBase))
	b.MovRI(guest.ESI, 0)
	b.MovRI(guest.EDI, 0)
	b.MovRI(guest.EAX, int32(r.Uint32()))
	b.MovRI(guest.EBX, int32(r.Uint32()))

	// Cold one-shot initialization blocks, separated by jumps so each
	// is a distinct basic block in IM.
	for c := 0; c < s.ColdBlocks; c++ {
		s.emitBody(b, r, s.ColdLen, 0.0, 0.3)
		b.Jmp(lbl(fmt.Sprintf("cold%d", c)))
		b.Label(lbl(fmt.Sprintf("cold%d", c)))
	}

	// Warm-region counter in memory (so no register is consumed).
	// Phased composites share the data region, but every phase
	// re-initializes the counter here, so reuse across phases is safe.
	warmCountAddr := int32(s.Footprint + 64)
	b.MovRI(guest.EAX, int32(s.WarmIters))
	b.Store(guest.EBP, warmCountAddr, guest.EAX)

	b.MovRI(guest.EDX, int32(s.OuterIters))
	b.Label(lbl("outer"))

	// Hot kernels.
	for k := 0; k < s.HotKernels; k++ {
		if s.UseCalls {
			b.Call(lbl(fmt.Sprintf("kernel%d", k)))
		} else {
			s.emitKernelInline(b, r, ctx, k)
		}
	}

	// Warm region: executed only while its countdown is positive.
	if s.WarmBlocks > 0 {
		b.Load(guest.EAX, guest.EBP, warmCountAddr)
		b.CmpRI(guest.EAX, 0)
		b.Jcc(guest.CondLE, lbl("warmskip"))
		b.Dec(guest.EAX)
		b.Store(guest.EBP, warmCountAddr, guest.EAX)
		for w := 0; w < s.WarmBlocks; w++ {
			s.emitBody(b, r, s.WarmLen, s.FPFrac/2, 0.3)
			b.Jmp(lbl(fmt.Sprintf("warm%d", w)))
			b.Label(lbl(fmt.Sprintf("warm%d", w)))
		}
		b.Label(lbl("warmskip"))
	}

	// Dispatcher: indirect jumps through a jump table.
	var tbl *pendingTable
	if s.Fanout > 0 && s.DispatchIters > 0 {
		b.MovRI(guest.ECX, int32(s.DispatchIters))
		b.Label(lbl("dispatch"))
		b.MovRI(guest.EAX, int32(ctx.tableBase))
		b.LoadIdx(guest.EAX, guest.EAX, guest.EDI, 4, 0)
		b.JmpInd(guest.EAX)
		for c := 0; c < s.Fanout; c++ {
			b.Label(lbl(fmt.Sprintf("case%d", c)))
			s.emitBody(b, r, 4+c%5, 0, 0.25)
			if s.CaseCalls {
				b.Call(lbl("casehelper"))
			}
			b.Jmp(lbl("dispjoin"))
		}
		b.Label(lbl("dispjoin"))
		b.Inc(guest.EDI)
		b.CmpRI(guest.EDI, int32(s.Fanout))
		b.Jcc(guest.CondL, lbl("dispnowrap"))
		b.MovRI(guest.EDI, 0)
		b.Label(lbl("dispnowrap"))
		b.Dec(guest.ECX)
		b.CmpRI(guest.ECX, 0)
		b.Jcc(guest.CondG, lbl("dispatch"))
	}

	b.Dec(guest.EDX)
	b.CmpRI(guest.EDX, 0)
	b.Jcc(guest.CondG, lbl("outer"))
	if ctx.next == "" {
		b.Halt()
	} else {
		b.Jmp(ctx.next)
	}

	// Kernel bodies as functions.
	if s.UseCalls {
		for k := 0; k < s.HotKernels; k++ {
			b.Label(lbl(fmt.Sprintf("kernel%d", k)))
			s.emitKernelBody(b, r, ctx, k)
			b.Ret()
		}
	}
	if s.Fanout > 0 && s.CaseCalls {
		b.Label(lbl("casehelper"))
		s.emitBody(b, r, 5, 0, 0.3)
		b.Ret()
	}

	// Jump table data, resolved by the caller after layout.
	if s.Fanout > 0 {
		tbl = &pendingTable{base: ctx.tableBase}
		for c := 0; c < s.Fanout; c++ {
			tbl.labels = append(tbl.labels, lbl(fmt.Sprintf("case%d", c)))
		}
	}
	return tbl
}

// emitKernelInline emits kernel k as an inline loop.
func (s Spec) emitKernelInline(b *guest.Builder, r *rand.Rand, ctx emitCtx, k int) {
	b.MovRI(guest.ECX, int32(s.KernelIter))
	b.Label(ctx.prefix + fmt.Sprintf("kloop%d", k))
	s.emitBody(b, r, s.KernelLen, s.FPFrac, s.MemFrac)
	b.Inc(guest.ESI)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondG, ctx.prefix+fmt.Sprintf("kloop%d", k))
}

// emitKernelBody emits kernel k's loop for the function form.
func (s Spec) emitKernelBody(b *guest.Builder, r *rand.Rand, ctx emitCtx, k int) {
	b.MovRI(guest.ECX, int32(s.KernelIter))
	b.Label(ctx.prefix + fmt.Sprintf("kbody%d", k))
	s.emitBody(b, r, s.KernelLen, s.FPFrac, s.MemFrac)
	b.Inc(guest.ESI)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondG, ctx.prefix+fmt.Sprintf("kbody%d", k))
}

// emitBody emits n mostly-straight-line instructions mixing integer
// ALU, FP and memory operations, with occasional short forward
// conditional branches (BranchFrac) that split the code into several
// basic blocks, as compiler output does. It uses only EAX/EBX as
// scratch and addresses data via EBP+masked(ESI), so control registers
// survive.
func (s Spec) emitBody(b *guest.Builder, r *rand.Rand, n int, fpFrac, memFrac float64) {
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
			// Short forward skip: cmp; jcc over two instructions. The
			// direction depends on runtime data, giving the branch
			// predictor real work.
			l := fmt.Sprintf("skip_%d", b.InstCount())
			b.TestRR(guest.EAX, guest.EAX)
			conds := []guest.Cond{guest.CondE, guest.CondNE, guest.CondS, guest.CondNS}
			b.Jcc(conds[r.Intn(len(conds))], l)
			b.AddRI(guest.EBX, int32(r.Intn(64)))
			b.XorRR(guest.EAX, guest.EBX)
			b.Label(l)
			i += 3
		case x < brFrac+memFrac:
			if s.Irregular {
				// Hash-indexed access: EAX = EBP + (h(ESI+k) & mask);
				// the stride prefetcher cannot cover these.
				b.Lea(guest.EAX, guest.ESI, int32(r.Intn(1<<20)))
				b.MovRI(guest.EBX, 0x61c88647) // golden-ratio multiplier
				b.ImulRR(guest.EAX, guest.EBX)
				b.Shr(guest.EAX, 8)
				b.AndRI(guest.EAX, mask&^3)
				b.AddRR(guest.EAX, guest.EBP)
				if r.Intn(2) == 0 {
					b.Load(guest.EBX, guest.EAX, 0)
				} else {
					b.MovRI(guest.EBX, int32(r.Uint32()))
					b.Store(guest.EAX, 0, guest.EBX)
					i++
				}
				i += 6
			} else {
				// Masked strided access: EAX = EBP + ((ESI << log2 stride) & mask).
				b.MovRR(guest.EAX, guest.ESI)
				b.Shl(guest.EAX, log2i(stride))
				b.AndRI(guest.EAX, mask&^3)
				b.AddRR(guest.EAX, guest.EBP)
				if r.Intn(2) == 0 {
					b.Load(guest.EBX, guest.EAX, 0)
				} else {
					b.Store(guest.EAX, 0, guest.EBX)
				}
				i += 4
			}
		case x < brFrac+memFrac+fpFrac:
			f1 := guest.FReg(r.Intn(4))
			f2 := guest.FReg(r.Intn(4))
			switch r.Intn(4) {
			case 0:
				b.FAdd(f1, f2)
			case 1:
				b.FMul(f1, f2)
			case 2:
				b.FLoad(f1, guest.EBP, int32(r.Intn(64))*8)
				i++
			default:
				b.FStore(guest.EBP, int32(r.Intn(64))*8, f1)
				i++
			}
		default:
			switch r.Intn(8) {
			case 0:
				b.AddRR(guest.EAX, guest.EBX)
			case 1:
				b.SubRI(guest.EBX, int32(r.Intn(100)))
			case 2:
				b.XorRR(guest.EAX, guest.EBX)
			case 3:
				b.Shl(guest.EAX, int32(1+r.Intn(7)))
			case 4:
				b.MovRR(guest.EBX, guest.EAX)
			case 5:
				b.AndRI(guest.EAX, int32(r.Uint32()))
			case 6:
				b.Inc(guest.EBX)
			default:
				b.OrRR(guest.EBX, guest.EAX)
			}
		}
	}
}
