package timing

import "math"

// BubbleKind classifies stall cycles into the paper's bubble sources
// (Figure 9): data-cache miss bubbles, instruction-cache miss bubbles,
// branch bubbles, and instruction-scheduling bubbles (IQ unable to
// issue due to data dependencies or execution-unit availability).
type BubbleKind uint8

// Bubble kinds.
const (
	BubbleDMiss BubbleKind = iota
	BubbleIMiss
	BubbleBranch
	BubbleSched
	NumBubbleKinds
)

var bubbleNames = [NumBubbleKinds]string{"d$-miss", "i$-miss", "branch", "sched"}

func (k BubbleKind) String() string {
	if int(k) < len(bubbleNames) {
		return bubbleNames[k]
	}
	return "bubble?"
}

// Result aggregates everything a timing run measures. Owner-indexed
// arrays serialize as two-element JSON arrays ([app, tol]); component-
// indexed arrays follow the Component order of stream.go.
type Result struct {
	Cycles uint64 `json:"cycles"`

	// Retired instruction counts.
	Insts       [NumOwners]uint64     `json:"insts"`
	InstsByComp [NumComponents]uint64 `json:"insts_by_comp"`

	// Cycle attribution. A cycle in which instructions issue is an
	// instruction cycle, split evenly among the issuing instructions'
	// owners/components; a cycle with no issue is a bubble charged to
	// its cause.
	InstCycles       [NumOwners]float64                 `json:"inst_cycles"`
	InstCyclesByComp [NumComponents]float64             `json:"inst_cycles_by_comp"`
	Bubbles          [NumOwners][NumBubbleKinds]float64 `json:"bubbles"`
	BubblesByComp    [NumComponents]float64             `json:"bubbles_by_comp"`

	// UnattributedCycles counts drain/warm-up cycles that have no
	// natural owner (empty pipeline with nothing blocked).
	UnattributedCycles float64 `json:"unattributed_cycles"`

	// Structure statistics.
	L1I    CacheStats  `json:"l1i"`
	L1D    CacheStats  `json:"l1d"`
	L2     CacheStats  `json:"l2"`
	L1TLB  CacheStats  `json:"l1_tlb"`
	L2TLB  CacheStats  `json:"l2_tlb"`
	Branch BranchStats `json:"branch"`

	PrefetchesIssued uint64 `json:"prefetches_issued"`
}

// TotalInsts returns total retired instructions.
func (r *Result) TotalInsts() uint64 { return r.Insts[OwnerApp] + r.Insts[OwnerTOL] }

// zip sets every integer counter of r to u of it and the counter at
// the same position of o, and every float counter likewise with f. It
// is the one walk over Result's counters: Add, Sub and Scale are built
// on it, so a counter added to Result and to zip takes part in all
// three. The callbacks see values, not pointers, so a walk does not
// allocate.
func (r *Result) zip(o *Result, u func(r, o uint64) uint64, f func(r, o float64) float64) {
	owners := func(d, s *[NumOwners]uint64) {
		for i := range d {
			d[i] = u(d[i], s[i])
		}
	}
	r.Cycles = u(r.Cycles, o.Cycles)
	owners(&r.Insts, &o.Insts)
	for c := range r.InstsByComp {
		r.InstsByComp[c] = u(r.InstsByComp[c], o.InstsByComp[c])
		r.InstCyclesByComp[c] = f(r.InstCyclesByComp[c], o.InstCyclesByComp[c])
		r.BubblesByComp[c] = f(r.BubblesByComp[c], o.BubblesByComp[c])
	}
	for w := range r.InstCycles {
		r.InstCycles[w] = f(r.InstCycles[w], o.InstCycles[w])
		for k := range r.Bubbles[w] {
			r.Bubbles[w][k] = f(r.Bubbles[w][k], o.Bubbles[w][k])
		}
	}
	r.UnattributedCycles = f(r.UnattributedCycles, o.UnattributedCycles)
	for _, c := range [...][2]*CacheStats{{&r.L1I, &o.L1I}, {&r.L1D, &o.L1D}, {&r.L2, &o.L2}, {&r.L1TLB, &o.L1TLB}, {&r.L2TLB, &o.L2TLB}} {
		owners(&c[0].Accesses, &c[1].Accesses)
		owners(&c[0].Misses, &c[1].Misses)
	}
	owners(&r.Branch.Branches, &o.Branch.Branches)
	owners(&r.Branch.Mispredicts, &o.Branch.Mispredicts)
	r.PrefetchesIssued = u(r.PrefetchesIssued, o.PrefetchesIssued)
}

// Add accumulates o's counters into r element-wise: how sampled
// simulation pools its measured intervals.
func (r *Result) Add(o *Result) {
	r.zip(o, func(a, b uint64) uint64 { return a + b }, func(a, b float64) float64 { return a + b })
}

// Sub returns the element-wise difference r − base of every counter,
// the measurement taken between two Simulator.ResultSoFar marks of the
// same run (base first). Sampled simulation uses it to discard the
// warm-up prefix of a measured interval.
func (r Result) Sub(base *Result) Result {
	r.zip(base, func(a, b uint64) uint64 { return a - b }, func(a, b float64) float64 { return a - b })
	return r
}

// Scale multiplies every counter of r by f, rounding the integer
// counters to the nearest: the extrapolation of pooled sampled
// intervals to the whole run.
func (r *Result) Scale(f float64) {
	r.zip(r, func(a, _ uint64) uint64 { return uint64(math.Round(float64(a) * f)) }, func(a, _ float64) float64 { return a * f })
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalInsts()) / float64(r.Cycles)
}

// OwnerCycles returns all cycles attributed to an owner (instruction
// cycles plus bubbles).
func (r *Result) OwnerCycles(o Owner) float64 {
	c := r.InstCycles[o]
	for k := BubbleKind(0); k < NumBubbleKinds; k++ {
		c += r.Bubbles[o][k]
	}
	return c
}

// ComponentCycles returns all cycles attributed to a TOL component (or
// the application via CompApp).
func (r *Result) ComponentCycles(c Component) float64 {
	return r.InstCyclesByComp[c] + r.BubblesByComp[c]
}

// TOLShare returns the fraction of execution time spent in TOL — the
// "overhead" series of the paper's Figure 6.
func (r *Result) TOLShare() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.OwnerCycles(OwnerTOL) / float64(r.Cycles)
}

// BubbleShare returns the fraction of cycles lost to a bubble kind,
// summed over owners.
func (r *Result) BubbleShare(k BubbleKind) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return (r.Bubbles[OwnerApp][k] + r.Bubbles[OwnerTOL][k]) / float64(r.Cycles)
}

// Summary is the flattened, machine-readable digest of a timing run:
// every derived quantity the figure harnesses read off a Result, with
// self-describing names instead of enum-indexed arrays.
type Summary struct {
	Cycles    uint64  `json:"cycles"`
	IPC       float64 `json:"ipc"`
	AppInsts  uint64  `json:"app_insts"`
	TOLInsts  uint64  `json:"tol_insts"`
	AppCycles float64 `json:"app_cycles"`
	TOLCycles float64 `json:"tol_cycles"`
	TOLShare  float64 `json:"tol_share"`

	// Bubble cycles per source, summed over owners (Figure 9 axes).
	DMissBubbles  float64 `json:"dmiss_bubbles"`
	IMissBubbles  float64 `json:"imiss_bubbles"`
	BranchBubbles float64 `json:"branch_bubbles"`
	SchedBubbles  float64 `json:"sched_bubbles"`

	// Cycles attributed per TOL component, keyed by Component.String()
	// (Figure 7 axes).
	ComponentCycles map[string]float64 `json:"component_cycles"`

	// Structure behaviour.
	L1IMissRate      float64 `json:"l1i_miss_rate"`
	L1DMissRate      float64 `json:"l1d_miss_rate"`
	L2MissRate       float64 `json:"l2_miss_rate"`
	L1TLBMissRate    float64 `json:"l1_tlb_miss_rate"`
	L2TLBMissRate    float64 `json:"l2_tlb_miss_rate"`
	MispredictRate   float64 `json:"mispredict_rate"`
	PrefetchesIssued uint64  `json:"prefetches_issued"`
}

// Summary flattens the result into its machine-readable digest.
func (r *Result) Summary() Summary {
	comps := make(map[string]float64, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		comps[c.String()] = r.ComponentCycles(c)
	}
	return Summary{
		Cycles:           r.Cycles,
		IPC:              r.IPC(),
		AppInsts:         r.Insts[OwnerApp],
		TOLInsts:         r.Insts[OwnerTOL],
		AppCycles:        r.OwnerCycles(OwnerApp),
		TOLCycles:        r.OwnerCycles(OwnerTOL),
		TOLShare:         r.TOLShare(),
		DMissBubbles:     r.Bubbles[OwnerApp][BubbleDMiss] + r.Bubbles[OwnerTOL][BubbleDMiss],
		IMissBubbles:     r.Bubbles[OwnerApp][BubbleIMiss] + r.Bubbles[OwnerTOL][BubbleIMiss],
		BranchBubbles:    r.Bubbles[OwnerApp][BubbleBranch] + r.Bubbles[OwnerTOL][BubbleBranch],
		SchedBubbles:     r.Bubbles[OwnerApp][BubbleSched] + r.Bubbles[OwnerTOL][BubbleSched],
		ComponentCycles:  comps,
		L1IMissRate:      r.L1I.MissRate(),
		L1DMissRate:      r.L1D.MissRate(),
		L2MissRate:       r.L2.MissRate(),
		L1TLBMissRate:    r.L1TLB.MissRate(),
		L2TLBMissRate:    r.L2TLB.MissRate(),
		MispredictRate:   r.Branch.MispredictRate(),
		PrefetchesIssued: r.PrefetchesIssued,
	}
}
