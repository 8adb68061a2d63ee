package tol

// Mode identifies the TOL execution mode that executed (or owns) a
// guest instruction, for the code-distribution accounting of Figure 5.
type Mode uint8

// Modes, ordered so that a higher value means a more optimized tier.
const (
	ModeIM Mode = iota + 1
	ModeBBM
	ModeSBM
)

func (m Mode) String() string {
	switch m {
	case ModeIM:
		return "IM"
	case ModeBBM:
		return "BBM"
	case ModeSBM:
		return "SBM"
	}
	return "none"
}

// Stats aggregates TOL-level statistics over a run. The struct is
// JSON-serializable and round-trips exactly: StaticMode carries the
// full static code-distribution information behind Figure 5a, one
// entry per executed guest PC, and is most of a record's bytes; its
// StaticModes codec writes encoding/json's bytes for the plain map
// without reflection.
type Stats struct {
	// Dynamic guest instructions executed, per mode (Figure 5b).
	DynIM  uint64 `json:"dyn_im"`
	DynBBM uint64 `json:"dyn_bbm"`
	DynSBM uint64 `json:"dyn_sbm"`

	// StaticMode maps each executed static guest instruction to the
	// highest mode that ever owned it (Figure 5a).
	StaticMode StaticModes `json:"static_mode,omitempty"`

	// Activity counters.
	BBTranslated   int    `json:"bb_translated"`
	SBCreated      int    `json:"sb_created"` // "SBM invocations" in Figure 6
	Chains         uint64 `json:"chains"`
	IBTCFills      uint64 `json:"ibtc_fills"`
	IndirectDyn    uint64 `json:"indirect_dyn"`  // dynamic guest indirect branches
	Lookups        uint64 `json:"lookups"`       // code cache lookups performed by TOL
	LookupProbes   uint64 `json:"lookup_probes"` // translation-table slots probed
	Transitions    uint64 `json:"transitions"`   // translated-code-to-TOL transitions
	CosimChecks    uint64 `json:"cosim_checks"`
	InterpBranches uint64 `json:"interp_branches"`

	// Code-cache pressure counters (all zero with the unbounded cache).
	// Evictions counts translations removed by the eviction policy;
	// Retranslations counts translations rebuilt for a guest entry that
	// was evicted earlier (BBM and SBM alike); FlushCount counts
	// eviction batches that left the cache empty (every flush-all
	// eviction, and complete reclamation under the other policies);
	// CacheOccupancyPeak is the high-water mark of occupied
	// instruction slots.
	Evictions          uint64 `json:"evictions,omitempty"`
	Retranslations     uint64 `json:"retranslations,omitempty"`
	FlushCount         uint64 `json:"flush_count,omitempty"`
	CacheOccupancyPeak int    `json:"cache_occupancy_peak,omitempty"`

	// SBPasses aggregates the optimizer's work per pass across all SBM
	// invocations, keyed by pass name in first-run order — the data
	// behind the "SBM time by pass" breakdown (Figure-7 refinement).
	SBPasses []PassStat `json:"sb_passes,omitempty"`
	// SBOtherInsts counts the modeled SBM host instructions outside the
	// passes: trace construction, IR build, emission and fixed
	// bookkeeping. SBPasses[i].CostInsts plus SBOtherInsts is the whole
	// SBM cost stream.
	SBOtherInsts uint64 `json:"sb_other_insts,omitempty"`
}

// PassStat aggregates one optimization pass's work across all SBM
// invocations of a run.
type PassStat struct {
	Pass       string `json:"pass"`
	Runs       uint64 `json:"runs"`       // pipeline-position invocations
	Visits     uint64 `json:"visits"`     // IR instruction visits billed
	Eliminated uint64 `json:"eliminated"` // guest instructions removed/absorbed
	// CostInsts is the number of modeled host instructions the cost
	// model attributed to the pass — its share of the SBM stream.
	CostInsts uint64 `json:"cost_insts"`
}

// addSBMPasses folds one superblock build's pass reports and cost
// split into the aggregate per-pass statistics. Repeated pipeline
// entries (O3 runs propagation twice) aggregate under one name.
func (s *Stats) addSBMPasses(reports []PassReport, cost sbmCost) {
	s.SBOtherInsts += uint64(cost.Other)
	for i, r := range reports {
		var ps *PassStat
		for j := range s.SBPasses {
			if s.SBPasses[j].Pass == r.Pass {
				ps = &s.SBPasses[j]
				break
			}
		}
		if ps == nil {
			s.SBPasses = append(s.SBPasses, PassStat{Pass: r.Pass})
			ps = &s.SBPasses[len(s.SBPasses)-1]
		}
		ps.Runs++
		ps.Visits += uint64(r.Visits)
		ps.Eliminated += uint64(r.Eliminated)
		if i < len(cost.PerPass) {
			ps.CostInsts += uint64(cost.PerPass[i])
		}
	}
}

// SBMInstTotal returns the total modeled SBM host instructions (all
// passes plus the non-pass remainder) — the denominator of the
// per-pass SBM time split.
func (s *Stats) SBMInstTotal() uint64 {
	total := s.SBOtherInsts
	for _, ps := range s.SBPasses {
		total += ps.CostInsts
	}
	return total
}

// DynTotal returns all guest instructions retired by the co-design
// component.
func (s *Stats) DynTotal() uint64 { return s.DynIM + s.DynBBM + s.DynSBM }

func (s *Stats) markStatic(pc uint32, m Mode) {
	if s.StaticMode == nil {
		s.StaticMode = make(StaticModes)
	}
	if s.StaticMode[pc] < m {
		s.StaticMode[pc] = m
	}
}

// StaticCounts returns the number of executed static guest
// instructions whose highest mode is IM, BBM and SBM respectively.
func (s *Stats) StaticCounts() (im, bbm, sbm int) {
	for _, m := range s.StaticMode {
		switch m {
		case ModeIM:
			im++
		case ModeBBM:
			bbm++
		case ModeSBM:
			sbm++
		}
	}
	return
}

// StaticTotal returns the number of distinct executed static guest
// instructions.
func (s *Stats) StaticTotal() int { return len(s.StaticMode) }

// Summary is the flattened, machine-readable digest of the TOL view of
// a run: the dynamic and static mode distributions plus every activity
// counter, without the per-PC StaticMode map.
type Summary struct {
	DynIM    uint64 `json:"dyn_im"`
	DynBBM   uint64 `json:"dyn_bbm"`
	DynSBM   uint64 `json:"dyn_sbm"`
	DynTotal uint64 `json:"dyn_total"`

	StaticIM    int `json:"static_im"`
	StaticBBM   int `json:"static_bbm"`
	StaticSBM   int `json:"static_sbm"`
	StaticTotal int `json:"static_total"`

	BBTranslated int    `json:"bb_translated"`
	SBCreated    int    `json:"sb_created"`
	Chains       uint64 `json:"chains"`
	IBTCFills    uint64 `json:"ibtc_fills"`
	IndirectDyn  uint64 `json:"indirect_dyn"`
	Lookups      uint64 `json:"lookups"`
	Transitions  uint64 `json:"transitions"`
	CosimChecks  uint64 `json:"cosim_checks"`

	Evictions          uint64 `json:"evictions,omitempty"`
	Retranslations     uint64 `json:"retranslations,omitempty"`
	FlushCount         uint64 `json:"flush_count,omitempty"`
	CacheOccupancyPeak int    `json:"cache_occupancy_peak,omitempty"`

	// SBPasses is the per-pass SBM work breakdown (pipeline order);
	// SBOtherInsts is the non-pass remainder of the SBM cost stream, so
	// per-pass shares can be normalized from the digest alone.
	SBPasses     []PassStat `json:"sb_passes,omitempty"`
	SBOtherInsts uint64     `json:"sb_other_insts,omitempty"`
}

// Summary flattens the stats into their machine-readable digest.
func (s *Stats) Summary() Summary {
	im, bbm, sbm := s.StaticCounts()
	return Summary{
		DynIM:        s.DynIM,
		DynBBM:       s.DynBBM,
		DynSBM:       s.DynSBM,
		DynTotal:     s.DynTotal(),
		StaticIM:     im,
		StaticBBM:    bbm,
		StaticSBM:    sbm,
		StaticTotal:  s.StaticTotal(),
		BBTranslated: s.BBTranslated,
		SBCreated:    s.SBCreated,
		Chains:       s.Chains,
		IBTCFills:    s.IBTCFills,
		IndirectDyn:  s.IndirectDyn,
		Lookups:      s.Lookups,
		Transitions:  s.Transitions,
		CosimChecks:  s.CosimChecks,

		Evictions:          s.Evictions,
		Retranslations:     s.Retranslations,
		FlushCount:         s.FlushCount,
		CacheOccupancyPeak: s.CacheOccupancyPeak,

		SBPasses:     append([]PassStat(nil), s.SBPasses...),
		SBOtherInsts: s.SBOtherInsts,
	}
}
