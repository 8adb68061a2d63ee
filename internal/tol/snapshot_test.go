package tol

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
)

// TestEngineFieldsHaveSnapshotDecision is the structural guard of the
// checkpoint layer: every Engine field must appear in this table (which
// mirrors the decision table documented in snapshot.go). Adding a
// stateful field to Engine without deciding how snapshots handle it
// fails this test, so no state can silently escape checkpoints.
func TestEngineFieldsHaveSnapshotDecision(t *testing.T) {
	decisions := map[string]string{
		"Cfg":          "captured",
		"isa":          "captured",
		"plan":         "rebuilt",
		"HostMem":      "captured",
		"CPU":          "captured",
		"GuestV":       "rebuilt",
		"guestMem":     "rebuilt",
		"CC":           "captured",
		"TT":           "captured",
		"IB":           "captured",
		"Prof":         "captured",
		"Trans":        "rebuilt",
		"cost":         "captured",
		"queue":        "captured",
		"dec":          "rebuilt",
		"gs":           "captured",
		"inTranslated": "captured",
		"curTrans":     "captured",
		"halted":       "captured",
		"err":          "excluded",
		"ctx":          "transient",
		"ctxPollIn":    "transient",
		"shadow":       "captured",
		"promoted":     "captured",
		"policy":       "captured",
		"evicted":      "captured",
		"stopAfter":    "transient",
		"paused":       "transient",
		"Stats":        "captured",
	}
	typ := reflect.TypeOf(Engine{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := decisions[name]; !ok {
			t.Errorf("Engine field %q has no snapshot decision; extend the table in snapshot.go and this test", name)
		}
	}
	for name := range decisions {
		if !seen[name] {
			t.Errorf("snapshot decision table lists %q, which is no longer an Engine field", name)
		}
	}
}

// drainStream drives the engine until the stream ends (pause, halt or
// error), appending everything to *out.
func drainStream(e *Engine, out *[]timing.DynInst) {
	var buf [256]timing.DynInst
	for {
		n := e.NextBatch(buf[:])
		if n == 0 {
			return
		}
		*out = append(*out, buf[:n]...)
	}
}

func mustStatsJSON(t *testing.T, s *Stats) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("stats marshal: %v", err)
	}
	return b
}

// testSnapshotRoundTrip pauses a run mid-flight, snapshots the engine
// through a full JSON round-trip, restores it, and asserts that the
// resumed run is byte-identical to an uninterrupted one: same stream,
// same final Stats serialization, same guest state.
func testSnapshotRoundTrip(t *testing.T, p *guest.Program, cfg Config) {
	t.Helper()

	// Uninterrupted reference run.
	ref := NewEngine(cfg, p)
	var full []timing.DynInst
	drainStream(ref, &full)
	if err := ref.Err(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !ref.Halted() {
		t.Fatal("reference run did not halt")
	}
	pause := ref.Stats.DynTotal() / 2
	if pause == 0 {
		t.Fatal("reference run too short to pause")
	}

	// Interrupted run: pause at the midpoint and snapshot.
	a := NewEngine(cfg, p)
	a.SetStopAfter(pause)
	var prefix []timing.DynInst
	drainStream(a, &prefix)
	if err := a.Err(); err != nil {
		t.Fatalf("paused run: %v", err)
	}
	if !a.Paused() {
		t.Fatalf("engine finished before the pause bound %d", pause)
	}
	sn, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	blob, err := json.Marshal(sn)
	if err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
	var decoded EngineSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}

	// Restore and resume to completion.
	b, err := RestoreEngine(p, &decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var suffix []timing.DynInst
	drainStream(b, &suffix)
	if err := b.Err(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !b.Halted() {
		t.Fatal("resumed run did not halt")
	}

	if got, want := len(prefix)+len(suffix), len(full); got != want {
		t.Fatalf("stream length: paused %d + resumed %d = %d, uninterrupted %d",
			len(prefix), len(suffix), got, want)
	}
	for i := range full {
		var d timing.DynInst
		if i < len(prefix) {
			d = prefix[i]
		} else {
			d = suffix[i-len(prefix)]
		}
		if d != full[i] {
			t.Fatalf("stream diverges at instruction %d: resumed %+v, uninterrupted %+v", i, d, full[i])
		}
	}
	if got, want := mustStatsJSON(t, &b.Stats), mustStatsJSON(t, &ref.Stats); !bytes.Equal(got, want) {
		t.Fatalf("final stats differ:\nresumed:       %s\nuninterrupted: %s", got, want)
	}
	if d := b.GuestState().Diff(ref.GuestState()); d != "" {
		t.Fatalf("final guest state differs: %s", d)
	}
}

// snapshotFixtures are the (program, config) pairs of the snapshot
// tests: every tier, the O0 and O3 pipelines, pure interpretation, and
// both stateful policy pairs under cache pressure. TestSnapshotGolden
// pins the snapshot bytes of the same pairs.
var snapshotFixtures = []struct {
	name string
	p    func() *guest.Program
	cfg  func(*Config)
}{
	{"all-tiers", func() *guest.Program { return fibProgram(500) }, func(c *Config) { c.SBThreshold = 20 }},
	{"O0", func() *guest.Program { return fibProgram(300) }, func(c *Config) { mustOpt(c, 0) }},
	{"O3", func() *guest.Program { return pressureProgram(4, 30, 4) }, func(c *Config) {
		c.SBThreshold = 20
		c.OptLevel = "O3"
	}},
	// Nothing ever translates.
	{"interp-only", func() *guest.Program { return fibProgram(200) }, func(c *Config) { c.BBThreshold = 1 << 30 }},
	{"bounded-lru", func() *guest.Program { return pressureProgram(6, 40, 8) }, func(c *Config) {
		c.SBThreshold = 25
		c.Cache = CacheConfig{CapacityInsts: 640, Policy: "lru-translation"}
	}},
	// Exercises both StateSnapshotter implementations: the fifo-region
	// eviction rotation and the adaptive promotion back-off.
	{"fifo-region-adaptive", func() *guest.Program { return pressureProgram(6, 40, 8) }, func(c *Config) {
		c.SBThreshold = 25
		c.Promotion = "adaptive"
		c.Cache = CacheConfig{CapacityInsts: 640, Policy: "fifo-region"}
	}},
}

// snapshotFixture returns the named fixture's program and config.
func snapshotFixture(t *testing.T, name string) (*guest.Program, Config) {
	t.Helper()
	for _, f := range snapshotFixtures {
		if f.name == name {
			cfg := DefaultConfig()
			f.cfg(&cfg)
			return f.p(), cfg
		}
	}
	t.Fatalf("no snapshot fixture %q", name)
	return nil, Config{}
}

func roundTripFixture(t *testing.T, name string) {
	t.Helper()
	p, cfg := snapshotFixture(t, name)
	testSnapshotRoundTrip(t, p, cfg)
}

func TestSnapshotRoundTripAllTiers(t *testing.T)   { roundTripFixture(t, "all-tiers") }
func TestSnapshotRoundTripO0(t *testing.T)         { roundTripFixture(t, "O0") }
func TestSnapshotRoundTripO3(t *testing.T)         { roundTripFixture(t, "O3") }
func TestSnapshotRoundTripInterpOnly(t *testing.T) { roundTripFixture(t, "interp-only") }
func TestSnapshotRoundTripBoundedLRU(t *testing.T) { roundTripFixture(t, "bounded-lru") }
func TestSnapshotRoundTripFifoRegionAdaptive(t *testing.T) {
	roundTripFixture(t, "fifo-region-adaptive")
}

// TestSnapshotMidQueue snapshots between single-instruction pops, while
// the engine's stream queue still holds undelivered instructions, and
// checks the restored engine delivers the identical remainder.
func TestSnapshotMidQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	p := fibProgram(100)

	a := NewEngine(cfg, p)
	var head timing.DynInst
	for i := 0; i < 777; i++ {
		if !a.Next(&head) {
			t.Fatalf("stream ended after %d instructions", i)
		}
	}
	sn, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(sn.Queue) == 0 {
		t.Fatal("test intended to snapshot a non-empty queue; adjust the pop count")
	}
	b, err := RestoreEngine(p, sn)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var restA, restB []timing.DynInst
	drainStream(a, &restA)
	drainStream(b, &restB)
	if len(restA) != len(restB) {
		t.Fatalf("remainder length: original %d, restored %d", len(restA), len(restB))
	}
	for i := range restA {
		if restA[i] != restB[i] {
			t.Fatalf("remainder diverges at %d: original %+v, restored %+v", i, restA[i], restB[i])
		}
	}
	if got, want := mustStatsJSON(t, &b.Stats), mustStatsJSON(t, &a.Stats); !bytes.Equal(got, want) {
		t.Fatalf("final stats differ:\nrestored: %s\noriginal: %s", got, want)
	}
}

// TestStopAfterBeyondHaltRunsToCompletion pins that an over-generous
// pause bound never fires: the run halts normally, unpaused.
func TestStopAfterBeyondHaltRunsToCompletion(t *testing.T) {
	cfg := DefaultConfig()
	e := NewEngine(cfg, fibProgram(50))
	e.SetStopAfter(1 << 40)
	var all []timing.DynInst
	drainStream(e, &all)
	if err := e.Err(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Paused() {
		t.Fatal("engine reports paused after a normal halt")
	}
	if !e.Halted() {
		t.Fatal("engine did not halt")
	}
}

// TestSnapshotPageSetsRoundTrip pins that restoring recreates the exact
// touched-page footprint, so snapshots of the restored machine match
// snapshots of the original byte for byte.
func TestSnapshotPageSetsRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	p := fibProgram(300)
	a := NewEngine(cfg, p)
	a.SetStopAfter(500)
	var discard []timing.DynInst
	drainStream(a, &discard)
	if !a.Paused() {
		t.Fatal("engine did not pause")
	}
	sn1, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	b, err := RestoreEngine(p, sn1)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	sn2, err := b.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	blob1, _ := json.Marshal(sn1)
	blob2, _ := json.Marshal(sn2)
	if !bytes.Equal(blob1, blob2) {
		t.Fatalf("snapshot of restored engine differs from original snapshot (%d vs %d bytes)", len(blob1), len(blob2))
	}
}
