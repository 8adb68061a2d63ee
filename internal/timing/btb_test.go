package timing

import (
	"testing"

	"repro/internal/host"
)

// TestBTBConflictEviction sends BTBAssoc+1 taken branches whose pc>>2
// map to one BTB set, then revisits them: the branch in the PLRU
// victim's way must have lost its target, and the others must still
// hit. The victim's revisit is tagged OwnerTOL so its outcome is
// counted apart from the survivors'.
func TestBTBConflictEviction(t *testing.T) {
	cfg := DefaultConfig()
	assoc := cfg.BTBAssoc
	setStride := uint32(cfg.BTBEntries/assoc) << 2
	branch := func(i int, owner Owner) DynInst {
		pc := 0x10000 + uint32(i)*setStride
		return DynInst{
			PC: pc, Class: host.ClassSimpleInt, Owner: owner,
			Dst: RegNone, Src1: RegNone, Src2: RegNone,
			IsBranch: true, Taken: true, Target: pc + 0x40,
		}
	}

	// In-order fills of ways 0..assoc-1 leave this way as the victim;
	// branch assoc replaces the branch that filled it.
	var tr plruTree
	for w := 0; w < assoc; w++ {
		tr.touch(w, assoc)
	}
	victim := tr.victim(assoc)

	var trace []DynInst
	for i := 0; i <= assoc; i++ {
		trace = append(trace, branch(i, OwnerApp))
	}
	for i := 0; i <= assoc; i++ {
		if i != victim {
			trace = append(trace, branch(i, OwnerApp))
		}
	}
	trace = append(trace, branch(victim, OwnerTOL))

	res := runTrace(t, trace, ModeShared)
	b := res.Branch
	if b.Branches[OwnerApp] != uint64(2*assoc+1) || b.Mispredicts[OwnerApp] != uint64(assoc+1) {
		t.Errorf("survivors: %d mispredicts in %d branches, want %d cold misses in %d",
			b.Mispredicts[OwnerApp], b.Branches[OwnerApp], assoc+1, 2*assoc+1)
	}
	if b.Branches[OwnerTOL] != 1 || b.Mispredicts[OwnerTOL] != 1 {
		t.Errorf("victim: %d mispredicts in %d branches, want its target evicted (1 in 1)",
			b.Mispredicts[OwnerTOL], b.Branches[OwnerTOL])
	}
}
