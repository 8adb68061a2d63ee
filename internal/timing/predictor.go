package timing

// Gshare branch predictor plus branch target buffer, per Table I
// (history register of 12 bits). Branch history is shared between TOL
// and the application, which is exactly the cross-pollution mechanism
// the paper's interaction study measures.

// BranchStats counts branch predictions and mispredictions per owner.
type BranchStats struct {
	Branches    [NumOwners]uint64 `json:"branches"`
	Mispredicts [NumOwners]uint64 `json:"mispredicts"`
}

// MispredictRate returns the overall misprediction rate.
func (s *BranchStats) MispredictRate() float64 {
	b := s.Branches[OwnerApp] + s.Branches[OwnerTOL]
	if b == 0 {
		return 0
	}
	return float64(s.Mispredicts[OwnerApp]+s.Mispredicts[OwnerTOL]) / float64(b)
}

// OwnerMispredictRate returns the misprediction rate of one owner.
func (s *BranchStats) OwnerMispredictRate(o Owner) float64 {
	if s.Branches[o] == 0 {
		return 0
	}
	return float64(s.Mispredicts[o]) / float64(s.Branches[o])
}

// predictor combines a Gshare direction predictor with a BTB for
// targets: a set-associative array keyed by pc>>2 whose slots index
// btbTargets. It counts into a BranchStats it does not own.
type predictor struct {
	historyMask uint32
	history     uint32
	counters    []uint8 // 2-bit saturating counters

	btb        setAssoc
	btbTargets []uint32

	stats *BranchStats
}

// newPredictor builds the predictor from the configuration, counting
// into stats.
func newPredictor(cfg *Config, stats *BranchStats) predictor {
	return predictor{
		stats:       stats,
		historyMask: 1<<cfg.BPHistoryBits - 1,
		counters:    make([]uint8, 1<<cfg.BPHistoryBits),
		btb:         newSetAssoc(cfg.BTBEntries, cfg.BTBAssoc),
		btbTargets:  make([]uint32, cfg.BTBEntries),
	}
}

func (p *predictor) gshareIndex(pc uint32) uint32 {
	return ((pc >> 2) ^ p.history) & p.historyMask
}

// update trains the predictor with the actual outcome of a branch.
// isCond selects whether the Gshare direction state is involved;
// unconditional and indirect branches train only the BTB.
func (p *predictor) update(pc uint32, isCond, taken bool, target uint32) {
	if isCond {
		idx := p.gshareIndex(pc)
		c := p.counters[idx]
		if taken {
			if c < 3 {
				p.counters[idx] = c + 1
			}
		} else if c > 0 {
			p.counters[idx] = c - 1
		}
		p.history = ((p.history << 1) | b2u32(taken)) & p.historyMask
	}
	if taken {
		i := p.btb.find(pc >> 2)
		if i < 0 {
			i = p.btb.fill(pc >> 2)
		}
		p.btbTargets[i] = target
	}
}

// PredictAndTrain performs the full fetch-time prediction for a branch
// instruction and trains the structures with the actual outcome. It
// returns whether the prediction was correct (direction and, for taken
// branches, target).
func (p *predictor) PredictAndTrain(d *DynInst) bool {
	owner := d.Owner
	p.stats.Branches[owner]++

	// A conditional branch needs the right direction; a taken branch
	// (every unconditional one) also needs the BTB's target.
	correct := true
	if d.IsCond && (p.counters[p.gshareIndex(d.PC)] >= 2) != d.Taken {
		correct = false
	} else if d.Taken || !d.IsCond {
		i := p.btb.find(d.PC >> 2)
		correct = i >= 0 && p.btbTargets[i] == d.Target
	}
	p.update(d.PC, d.IsCond, d.Taken, d.Target)
	if !correct {
		p.stats.Mispredicts[owner]++
	}
	return correct
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
