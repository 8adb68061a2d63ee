package darco

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// TestJobKeysStable pins Job.Key for a representative set of jobs. A
// persistent store files each record under the SHA-256 of its key, so
// an unchanged table is the proof that a store written by an earlier
// build still serves every such job as cached. The expected keys were
// generated before Job held its configuration as a plain value; a
// change that moves one changes every store address and must say so.
func TestJobKeysStable(t *testing.T) {
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "custom.keys"
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "custom.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	level := func(n int) *int { return &n }
	slots := 256
	off := false
	for _, tc := range []struct {
		name, ref string
		scale     float64
		knobs     Knobs
		want      string
	}{
		{"default", "462.libquantum", 1, Knobs{}, "462.libquantum|57e5801d55bf79fd"},
		{"split", "462.libquantum", 1, Knobs{Mode: "split"}, "462.libquantum|57e2801d55bd4426"},
		{"O0", "429.mcf", 0.5, Knobs{OptLevel: level(0)}, "429.mcf|43d721bf0d8886e2"},
		{"O3-lru256", "470.lbm", 1, Knobs{OptLevel: level(3), CCSize: &slots, CCPolicy: "lru-translation"}, "470.lbm|a9c4deaad6ddf6e9"},
		{"sampled", "401.bzip2", 2, Knobs{Sample: &SamplePlan{Every: 4}}, "401.bzip2|16d332c3ae6cc808"},
		{"rv32", "rv32:429.mcf", 0.25, Knobs{ISA: "rv32", Cosim: &off}, "429.mcf|21cc379e184406c5"},
		{"phased", "phased:401.bzip2+462.libquantum", 0.5, Knobs{}, "401.bzip2+462.libquantum|8b0c253aeea0cf83"},
		{"file", "file:" + file, 1, Knobs{}, "custom.keys|d77867fd53c1c024"},
	} {
		cfg := DefaultConfig()
		if err := tc.knobs.Apply(&cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		job, err := WithWorkload(tc.ref, tc.scale, WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := job.Key()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: key %q, want %q", tc.name, got, tc.want)
		}
	}
}
