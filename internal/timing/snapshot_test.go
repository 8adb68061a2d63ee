package timing

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRestoreRejectsForeignSnapshots: a SimSnapshot in the shape
// before structure sets (one field per structure kind), one with the
// wrong number of sets for its mode, and one whose arrays do not match
// its Config all fail RestoreSimulator with an error, never a panic.
func TestRestoreRejectsForeignSnapshots(t *testing.T) {
	fresh := func(mode Mode) map[string]json.RawMessage {
		blob, err := json.Marshal(NewSimulator(DefaultConfig(), mode).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	oldShape := fresh(ModeShared)
	delete(oldShape, "sets")
	for _, k := range []string{"l1i", "l1d", "l2", "l1_tlb", "l2_tlb"} {
		oldShape[k] = json.RawMessage(`[{"tags":[0],"valid":[1],"plru":[0],"stats":{}},null]`)
	}
	oldShape["bp"] = json.RawMessage(`[{"history":0,"counters":[0]},null]`)
	oldShape["pref"] = json.RawMessage(`[{"tags":[0],"useful":0},null]`)

	splitAsShared := fresh(ModeSplit)
	splitAsShared["mode"] = json.RawMessage(`0`)

	shrunk := fresh(ModeShared)
	var cfg Config
	if err := json.Unmarshal(shrunk["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.L2.Size /= 2
	shrunk["config"], _ = json.Marshal(cfg)

	for name, m := range map[string]map[string]json.RawMessage{
		"old shape":       oldShape,
		"split as shared": splitAsShared,
		"smaller L2":      shrunk,
	} {
		blob, _ := json.Marshal(m)
		var sn SimSnapshot
		if err := json.Unmarshal(blob, &sn); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := RestoreSimulator(&sn); err == nil || !strings.HasPrefix(err.Error(), "timing: ") {
			t.Errorf("%s: RestoreSimulator error = %v, want a timing error", name, err)
		}
	}
}
