package experiments

import (
	"strconv"
	"testing"

	"repro/internal/darco"
	"repro/internal/timing"
	"repro/internal/tol"
)

// TestFigCCSweepShape runs the cache-pressure sweep on one benchmark
// at two bounded capacities and checks the acceptance shape: one row
// per (policy, capacity) plus the unbounded baseline, capacities
// monotonically descending within each policy group, real eviction
// activity at the tight bound, and a baseline row identical to the
// unbounded run.
func TestFigCCSweepShape(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"006.jpg2000dec"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Derive a capacity that guarantees pressure from the benchmark's
	// own unbounded footprint.
	all, err := r.results([]timing.Mode{timing.ModeShared})
	if err != nil {
		t.Fatal(err)
	}
	base := all[0][timing.ModeShared]
	tight := base.CodeCacheInsts / 2
	if tight < tol.MinCacheCapacityInsts {
		tight = tol.MinCacheCapacityInsts
	}
	loose := base.CodeCacheInsts * 2

	tab, err := r.FigCC([]int{0, tight, loose})
	if err != nil {
		t.Fatal(err)
	}
	policies := tol.RegisteredEvictionPolicies()
	wantRows := 1 + len(policies)*2
	if len(tab.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), wantRows)
	}
	if tab.Rows[0][1] != "unbounded" || tab.Rows[0][2] != "inf" {
		t.Fatalf("baseline row = %v", tab.Rows[0])
	}
	row := 1
	for _, pol := range policies {
		prev := int(^uint(0) >> 1)
		for i := 0; i < 2; i++ {
			cells := tab.Rows[row]
			row++
			if cells[1] != pol {
				t.Fatalf("row %v: policy %q, want %q", cells, cells[1], pol)
			}
			size, err := strconv.Atoi(cells[2])
			if err != nil {
				t.Fatal(err)
			}
			if size >= prev {
				t.Fatalf("capacity column not monotonically descending: %d after %d", size, prev)
			}
			prev = size
			evictions, err := strconv.Atoi(cells[5])
			if err != nil {
				t.Fatal(err)
			}
			switch size {
			case loose:
				if evictions != 0 {
					t.Fatalf("%s at %d insts: unexpected evictions %d", pol, size, evictions)
				}
				if cells[4] != "1.000" {
					t.Fatalf("%s unpressured slowdown = %s, want 1.000", pol, cells[4])
				}
			case tight:
				if evictions == 0 {
					t.Fatalf("%s at %d insts: expected evictions (footprint %d)", pol, size, base.CodeCacheInsts)
				}
			}
		}
	}
}
