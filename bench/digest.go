package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
)

// goldenJSON is the committed reference (see README: "golden.json").
// It was generated with co-simulation on, so every functional result
// in it was checked instruction by instruction against internal/emu.
//
//go:embed golden.json
var goldenJSON []byte

// golden is the reference every run is checked against.
type golden struct {
	// Digests maps a digest group ("suite_detailed",
	// "translate_churn.catalog", "translate_churn.fuzz.seed1", ...) to
	// the stat digest of its jobs. Groups whose inputs do not depend on
	// the seed are checked on every run; the fuzz group only has a
	// committed digest for seed 1.
	Digests map[string]string `json:"digests"`
	// FullCycles are the exact cycle counts of the full detailed runs
	// of the sampled_long programs, the reference sample.err_pct is
	// measured against. Keyed by size ("full", "smoke") then program.
	FullCycles map[string]map[string]uint64 `json:"full_cycles"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return &g, nil
}

// statLine is the digest line of one job: every simulated statistic a
// host-side speed-up must leave identical. Timing fields are left out
// (tres nil) on the functional workloads, which run no timing model.
func statLine(name string, st *tol.Stats, final *guest.State, tres *timing.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%d", name, st.DynTotal())
	if tres != nil {
		fmt.Fprintf(&b, ",%d,%d,%d", tres.Cycles, tres.Insts[timing.OwnerApp], tres.Insts[timing.OwnerTOL])
	}
	fmt.Fprintf(&b, ",%d,%d,%d,%d,%d,%d,%d", st.DynIM, st.DynBBM, st.DynSBM,
		st.BBTranslated, st.SBCreated, st.Evictions, st.Retranslations)
	fj, _ := json.Marshal(final) // guest.State always marshals
	fmt.Fprintf(&b, ",%x", sha256.Sum256(fj))
	return b.String()
}

// digest hashes the lines in sorted order, so it does not depend on
// the order the jobs ran in.
func digest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(s, "\n"))))
}
