package workload

import (
	"fmt"
	"sync"
)

// The catalog mirrors the paper's benchmark list: SPEC CPU2006 INT
// (12), SPEC CPU2006 FP (16), Physicsbench (8) and Mediabench (12).
// Parameters are chosen to reproduce each benchmark's characterization
// drivers as reported in the paper — e.g. 462.libquantum's extreme
// dynamic/static ratio, 400.perlbench's indirect-branch dominance,
// 000/001 (c/djpeg)'s low repetition over a sizeable static footprint,
// 006.jpg2000dec's concentration into few superblocks versus
// 007.jpg2000enc's many barely-amortized ones, and Physicsbench's high
// interpreter activity. Dynamic sizes are scaled to the simulation
// budgets in DESIGN.md; use Spec.Scale to grow them.

// The catalog is generated once and memoized: Spec is a pure value
// type, so handing out slice copies keeps callers free to mutate their
// view (Scale, ad-hoc tweaks) without aliasing, while per-name lookups
// — which experiments.Runner issues in a loop — become a map hit
// instead of regenerating all 48 specs.
var (
	catalogOnce  sync.Once
	catalogSpecs []Spec
	catalogIndex map[string]int
)

func buildCatalog() {
	catalogSpecs = append(catalogSpecs, specINT()...)
	catalogSpecs = append(catalogSpecs, specFP()...)
	catalogSpecs = append(catalogSpecs, physics()...)
	catalogSpecs = append(catalogSpecs, media()...)
	catalogIndex = make(map[string]int, len(catalogSpecs))
	for i := range catalogSpecs {
		catalogSpecs[i].Seed = int64(1000 + i)
		catalogIndex[catalogSpecs[i].Name] = i
	}
}

// Catalog returns the full 48-benchmark list in the paper's order. The
// returned slice is the caller's to mutate.
func Catalog() []Spec {
	catalogOnce.Do(buildCatalog)
	return append([]Spec(nil), catalogSpecs...)
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (Spec, error) {
	catalogOnce.Do(buildCatalog)
	i, ok := catalogIndex[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return catalogSpecs[i], nil
}

// Names returns all benchmark names in catalog order.
func Names() []string {
	catalogOnce.Do(buildCatalog)
	out := make([]string, len(catalogSpecs))
	for i := range catalogSpecs {
		out[i] = catalogSpecs[i].Name
	}
	return out
}

// Outliers returns the four special cases the paper analyzes in
// Figures 9–11: high ratio (470.lbm), ratio close to the promotion
// threshold with high SBM activity (007.jpg2000enc), low ratio with
// high interpreter activity (107.novis_ragdoll), and indirect-branch
// dominated (400.perlbench).
func Outliers() []string {
	return []string{"470.lbm", "007.jpg2000enc", "107.novis_ragdoll", "400.perlbench"}
}

func specINT() []Spec {
	base := Spec{
		Suite: SPECInt, UseCalls: true,
		HotKernels: 4, KernelLen: 28, KernelIter: 120, OuterIters: 16,
		ColdBlocks: 10, ColdLen: 40, WarmBlocks: 8, WarmLen: 30, WarmIters: 8,
		FPFrac: 0.02, MemFrac: 0.25, BranchFrac: 0.10,
		Footprint: 1 << 15, Stride: 8,
	}
	w := func(name string, f func(*Spec)) Spec {
		s := base
		s.Name = name
		f(&s)
		return s
	}
	return []Spec{
		w("400.perlbench", func(s *Spec) {
			// Indirect-branch dominated: frequent dispatcher activity
			// and many distinct blocks (22.7M indirect per 4B in the
			// paper ≈ 5.7 per 1K instructions).
			s.Fanout = 48
			s.CaseCalls = true
			s.DispatchIters = 80
			s.HotKernels = 8
			s.KernelLen = 22
			s.KernelIter = 55
			s.OuterIters = 28
			s.ColdBlocks = 24
			s.WarmBlocks = 18
			s.Footprint = 1 << 17
			s.Irregular = true
		}),
		w("401.bzip2", func(s *Spec) {
			// Small static code, high repetition, ~no indirect branches.
			s.UseCalls = false
			s.HotKernels = 2
			s.KernelLen = 34
			s.KernelIter = 700
			s.OuterIters = 12
			s.ColdBlocks = 4
			s.WarmBlocks = 3
			s.Footprint = 1 << 16
			s.Stride = 4
		}),
		w("403.gcc", func(s *Spec) {
			// Large static footprint, low repetition, indirect-branchy.
			s.HotKernels = 14
			s.KernelLen = 36
			s.KernelIter = 26
			s.OuterIters = 22
			s.ColdBlocks = 44
			s.ColdLen = 48
			s.WarmBlocks = 34
			s.WarmLen = 42
			s.WarmIters = 7
			s.Fanout = 12
			s.DispatchIters = 70
			s.BranchFrac = 0.14
		}),
		w("429.mcf", func(s *Spec) {
			// Memory bound: pointer-chasing-like large-stride traffic.
			s.HotKernels = 2
			s.KernelLen = 26
			s.KernelIter = 420
			s.MemFrac = 0.5
			s.Footprint = 1 << 20
			s.Stride = 64
			s.Irregular = true
		}),
		w("445.gobmk", func(s *Spec) {
			// Branchy with a wide static footprint: hard on the BP.
			s.HotKernels = 10
			s.KernelLen = 30
			s.KernelIter = 40
			s.BranchFrac = 0.22
			s.ColdBlocks = 26
			s.WarmBlocks = 22
			s.WarmIters = 9
		}),
		w("458.sjeng", func(s *Spec) {
			s.HotKernels = 7
			s.KernelIter = 70
			s.BranchFrac = 0.18
			s.Fanout = 8
			s.DispatchIters = 30
		}),
		w("462.libquantum", func(s *Spec) {
			// Tiny hot loop with an extreme dynamic/static ratio.
			s.UseCalls = false
			s.HotKernels = 1
			s.KernelLen = 18
			s.KernelIter = 5200
			s.OuterIters = 14
			s.ColdBlocks = 2
			s.WarmBlocks = 1
			s.MemFrac = 0.3
			s.Stride = 16
			s.Footprint = 1 << 18
		}),
		w("464.h264ref", func(s *Spec) {
			s.HotKernels = 6
			s.KernelLen = 34
			s.KernelIter = 90
			s.MemFrac = 0.35
			s.Stride = 4
		}),
		w("471.omnetpp", func(s *Spec) {
			// Virtual-call style indirect branches.
			s.Fanout = 28
			s.CaseCalls = true
			s.DispatchIters = 60
			s.HotKernels = 5
			s.KernelIter = 90
			s.Footprint = 1 << 18
			s.Stride = 32
			s.Irregular = true
		}),
		w("473.astar", func(s *Spec) {
			s.HotKernels = 3
			s.KernelIter = 200
			s.MemFrac = 0.4
			s.BranchFrac = 0.15
			s.Footprint = 1 << 19
			s.Stride = 16
			s.Irregular = true
		}),
		w("483.xalancbmk", func(s *Spec) {
			s.Fanout = 32
			s.CaseCalls = true
			s.DispatchIters = 60
			s.HotKernels = 7
			s.KernelIter = 65
			s.ColdBlocks = 30
			s.WarmBlocks = 20
			s.Irregular = true
		}),
		w("998.specrand", func(s *Spec) {
			// Tiny program that barely leaves start-up.
			s.UseCalls = false
			s.HotKernels = 1
			s.KernelLen = 16
			s.KernelIter = 40
			s.OuterIters = 6
			s.ColdBlocks = 2
			s.WarmBlocks = 1
			s.MemFrac = 0.1
		}),
	}
}

func specFP() []Spec {
	base := Spec{
		Suite: SPECFP, UseCalls: true,
		HotKernels: 3, KernelLen: 34, KernelIter: 480, OuterIters: 14,
		ColdBlocks: 8, ColdLen: 40, WarmBlocks: 6, WarmLen: 30, WarmIters: 7,
		FPFrac: 0.45, MemFrac: 0.25, BranchFrac: 0.04,
		Footprint: 1 << 17, Stride: 8,
	}
	w := func(name string, f func(*Spec)) Spec {
		s := base
		s.Name = name
		f(&s)
		return s
	}
	return []Spec{
		w("410.bwaves", func(s *Spec) { s.KernelIter = 500; s.Stride = 8 }),
		w("433.milc", func(s *Spec) {
			// ~15K static instructions but far more dynamic than the
			// jpegs: the amortization contrast of Section III-B.
			s.HotKernels = 5
			s.KernelIter = 380
			s.ColdBlocks = 16
			s.WarmBlocks = 12
		}),
		w("434.zeusmp", func(s *Spec) { s.KernelIter = 420; s.MemFrac = 0.3 }),
		w("435.gromacs", func(s *Spec) { s.HotKernels = 4; s.KernelIter = 260 }),
		w("436.cactusADM", func(s *Spec) {
			s.HotKernels = 2
			s.KernelLen = 48
			s.KernelIter = 600
			s.FPFrac = 0.6
		}),
		w("437.leslie3d", func(s *Spec) { s.KernelIter = 400; s.Stride = 16 }),
		w("444.namd", func(s *Spec) { s.HotKernels = 4; s.KernelIter = 300; s.FPFrac = 0.55 }),
		w("447.dealII", func(s *Spec) {
			s.Fanout = 10
			s.DispatchIters = 40
			s.HotKernels = 5
			s.KernelIter = 150
		}),
		w("450.soplex", func(s *Spec) {
			s.MemFrac = 0.4
			s.Footprint = 1 << 19
			s.Stride = 32
			s.KernelIter = 220
			s.Irregular = true
		}),
		w("459.GemsFDTD", func(s *Spec) {
			// High indirect/returns for an FP code (per Section III-B).
			s.Fanout = 24
			s.CaseCalls = true
			s.DispatchIters = 70
			s.HotKernels = 4
			s.KernelIter = 260
		}),
		w("453.povray", func(s *Spec) {
			s.HotKernels = 6
			s.KernelIter = 110
			s.BranchFrac = 0.12
			s.Fanout = 8
			s.DispatchIters = 40
		}),
		w("454.calculix", func(s *Spec) { s.HotKernels = 4; s.KernelIter = 240 }),
		w("470.lbm", func(s *Spec) {
			// The high-ratio outlier: nearly all time in two fused
			// streaming kernels; TOL overhead fully amortized.
			s.UseCalls = false
			s.HotKernels = 2
			s.KernelLen = 44
			s.KernelIter = 2600
			s.OuterIters = 10
			s.ColdBlocks = 3
			s.WarmBlocks = 2
			s.MemFrac = 0.35
			s.Stride = 8
			s.Footprint = 1 << 20
		}),
		w("481.wrf", func(s *Spec) { s.HotKernels = 5; s.KernelIter = 200; s.ColdBlocks = 20 }),
		w("482.sphinx3", func(s *Spec) { s.KernelIter = 260; s.MemFrac = 0.35 }),
		w("999.specrand", func(s *Spec) {
			s.UseCalls = false
			s.HotKernels = 1
			s.KernelLen = 16
			s.KernelIter = 40
			s.OuterIters = 6
			s.ColdBlocks = 2
			s.WarmBlocks = 1
			s.FPFrac = 0.2
		}),
	}
}

func physics() []Spec {
	// Physicsbench: low dynamic/static ratio with high interpreter
	// activity — warm code executes only a few times (around IM/BBth),
	// so a large share of the static code never leaves IM.
	base := Spec{
		Suite: Physics, UseCalls: true,
		HotKernels: 3, KernelLen: 30, KernelIter: 340, OuterIters: 12,
		ColdBlocks: 30, ColdLen: 44, WarmBlocks: 26, WarmLen: 36, WarmIters: 4,
		FPFrac: 0.35, MemFrac: 0.3, BranchFrac: 0.12,
		Footprint: 1 << 16, Stride: 16,
	}
	w := func(name string, f func(*Spec)) Spec {
		s := base
		s.Name = name
		f(&s)
		return s
	}
	return []Spec{
		w("100.novis_breakable", func(s *Spec) { s.KernelIter = 380 }),
		w("101.novis_continuous", func(s *Spec) { s.HotKernels = 4; s.KernelIter = 300 }),
		w("102.novis_deformable", func(s *Spec) { s.KernelIter = 420; s.FPFrac = 0.45 }),
		w("103.novis_everything", func(s *Spec) {
			s.HotKernels = 5
			s.ColdBlocks = 40
			s.WarmBlocks = 34
		}),
		w("104.novis_explosions", func(s *Spec) { s.KernelIter = 460; s.MemFrac = 0.35 }),
		w("105.novis_highspeed", func(s *Spec) { s.KernelIter = 260 }),
		w("106.novis_periodic", func(s *Spec) { s.HotKernels = 2; s.KernelIter = 520 }),
		w("107.novis_ragdoll", func(s *Spec) {
			// The low-ratio / high-IM outlier: the warm region and the
			// many cold blocks dominate; hot kernels barely repeat.
			s.HotKernels = 2
			s.KernelLen = 24
			s.KernelIter = 150
			s.OuterIters = 10
			s.ColdBlocks = 48
			s.ColdLen = 50
			s.WarmBlocks = 42
			s.WarmLen = 44
			s.WarmIters = 3
		}),
	}
}

func media() []Spec {
	// Mediabench: modest repetition; several entries sit near the
	// promotion threshold.
	base := Spec{
		Suite: Media, UseCalls: true,
		HotKernels: 5, KernelLen: 30, KernelIter: 190, OuterIters: 8,
		ColdBlocks: 20, ColdLen: 44, WarmBlocks: 14, WarmLen: 34, WarmIters: 6,
		FPFrac: 0.08, MemFrac: 0.35, BranchFrac: 0.08,
		Footprint: 1 << 17, Stride: 4,
	}
	w := func(name string, f func(*Spec)) Spec {
		s := base
		s.Name = name
		f(&s)
		return s
	}
	return []Spec{
		w("000.cjpeg", func(s *Spec) {
			// ~15K static instructions with little repetition: heavy
			// interpreter and translator share.
			s.HotKernels = 4
			s.KernelIter = 62
			s.OuterIters = 8
			s.ColdBlocks = 40
			s.ColdLen = 52
			s.WarmBlocks = 30
			s.WarmLen = 44
			s.WarmIters = 5
		}),
		w("001.djpeg", func(s *Spec) {
			s.HotKernels = 4
			s.KernelIter = 70
			s.OuterIters = 8
			s.ColdBlocks = 36
			s.ColdLen = 50
			s.WarmBlocks = 28
			s.WarmLen = 42
			s.WarmIters = 5
		}),
		w("002.h263dec", func(s *Spec) {
			// Many superblocks whose repetition sits near BB/SBth.
			s.HotKernels = 9
			s.KernelIter = 45
			s.OuterIters = 9
		}),
		w("003.h263enc", func(s *Spec) { s.HotKernels = 7; s.KernelIter = 130 }),
		w("004.h264dec", func(s *Spec) { s.HotKernels = 6; s.KernelIter = 240 }),
		w("005.h264enc", func(s *Spec) {
			s.HotKernels = 8
			s.KernelIter = 170
			s.MemFrac = 0.4
		}),
		w("006.jpg2000dec", func(s *Spec) {
			// Execution concentrated in few superblocks: few kernels,
			// high repetition — low SBM overhead despite a near-
			// threshold global ratio.
			s.HotKernels = 2
			s.KernelLen = 40
			s.KernelIter = 420
			s.OuterIters = 7
		}),
		w("007.jpg2000enc", func(s *Spec) {
			// The near-threshold outlier: many kernels cross BB/SBth
			// late, so many superblocks are created and barely
			// amortized.
			s.HotKernels = 14
			s.KernelLen = 26
			s.KernelIter = 34
			s.OuterIters = 12
			s.WarmBlocks = 18
		}),
		w("008.mpeg2dec", func(s *Spec) { s.HotKernels = 5; s.KernelIter = 280 }),
		w("009.mpeg2enc", func(s *Spec) { s.HotKernels = 6; s.KernelIter = 210 }),
		w("010.mpeg4dec", func(s *Spec) { s.HotKernels = 6; s.KernelIter = 320; s.MemFrac = 0.4 }),
		w("011.mpeg4enc", func(s *Spec) { s.HotKernels = 8; s.KernelIter = 200; s.MemFrac = 0.4 }),
	}
}
