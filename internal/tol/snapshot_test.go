package tol

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/workload"
)

// TestEngineFieldsHaveSnapshotDecision is the structural guard of the
// checkpoint layer: every Engine field must have a decision in
// engineFields (snapshot.go), and every decision must name a field.
// Adding a stateful field to Engine without deciding how snapshots
// handle it fails this test, so no state can silently escape
// checkpoints.
func TestEngineFieldsHaveSnapshotDecision(t *testing.T) {
	typ := reflect.TypeOf(Engine{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		decision, ok := engineFields[name]
		if !ok {
			t.Errorf("Engine field %q has no snapshot decision; extend engineFields in snapshot.go", name)
			continue
		}
		kind, _, _ := strings.Cut(decision, ":")
		switch kind {
		case "captured", "rebuilt", "transient", "excluded":
		default:
			t.Errorf("Engine field %q has decision %q, want captured, rebuilt, transient or excluded", name, decision)
		}
	}
	for name := range engineFields {
		if !seen[name] {
			t.Errorf("engineFields lists %q, which is no longer an Engine field", name)
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
	// Exercises both stateSnapshotter implementations: the fifo-region
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

// TestRestoreRejectsOutOfRangeQueue: a snapshot whose queued stream
// entries name an owner, component or scoreboard register outside the
// timing model's tables fails RestoreEngine with an error, instead of
// restoring and panicking in the simulator on resume.
func TestRestoreRejectsOutOfRangeQueue(t *testing.T) {
	cfg := DefaultConfig()
	p := fibProgram(100)
	e := NewEngine(cfg, p)
	var head timing.DynInst
	for i := 0; i < 777; i++ {
		if !e.Next(&head) {
			t.Fatalf("stream ended after %d instructions", i)
		}
	}
	sn, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Queue) == 0 {
		t.Fatal("test intended to snapshot a non-empty queue; adjust the pop count")
	}
	queue := sn.Queue
	for _, c := range []struct {
		name   string
		doctor func(*timing.DynInst)
	}{
		{"owner", func(d *timing.DynInst) { d.Owner = 5 }},
		{"component", func(d *timing.DynInst) { d.Comp = timing.NumComponents }},
		{"dst", func(d *timing.DynInst) { d.Dst = timing.NumSBRegs }},
		{"src1", func(d *timing.DynInst) { d.Src1 = 200 }},
		{"src2", func(d *timing.DynInst) { d.Src2 = timing.RegNone - 1 }},
	} {
		sn.Queue = append([]timing.DynInst(nil), queue...)
		c.doctor(&sn.Queue[len(sn.Queue)-1])
		if _, err := RestoreEngine(p, sn); err == nil || !strings.HasPrefix(err.Error(), "tol: ") {
			t.Errorf("%s: RestoreEngine error = %v, want a tol error", c.name, err)
		}
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

// TestRestoreRejectsDoctoredTables: an engine checkpoint whose
// translation table or profile directory holds state no run produces
// fails RestoreEngine with an error, instead of restoring and then
// panicking, or counting outside the profile table, once the run goes
// on. The table's live and occupied counts are derived from its slots,
// so a doctored count is ignored: the "resumes" rows restore and finish
// exactly like the uninterrupted run.
func TestRestoreRejectsDoctoredTables(t *testing.T) {
	wp, err := workload.OpenScaled("400.perlbench", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wp.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ref := NewEngine(cfg, p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, p)
	e.SetStopAfter(5000)
	var discard []timing.DynInst
	drainStream(e, &discard)
	if !e.Paused() {
		t.Fatal("engine did not pause")
	}
	sn, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.TT.Slots) == 0 || len(sn.Prof.Slots) < 2 {
		t.Fatalf("pause too early: %d table slots, %d profile slots", len(sn.TT.Slots), len(sn.Prof.Slots))
	}
	blob, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	tombstones := func(sn *EngineSnapshot, n int) {
		used := map[uint32]bool{}
		for _, s := range sn.TT.Slots {
			used[s.Idx] = true
		}
		for i := uint32(0); len(sn.TT.Slots) < n; i++ {
			if !used[i] {
				sn.TT.Slots = append(sn.TT.Slots, TTSlotSnap{Idx: i, Key: ttTombstone})
			}
		}
	}
	for _, c := range []struct {
		name    string
		doctor  func(*EngineSnapshot)
		resumes bool
	}{
		{"control", func(*EngineSnapshot) {}, true},
		{"table occ", func(sn *EngineSnapshot) { sn.TT.Occ = transTableEntries }, true},
		{"table at fill bound", func(sn *EngineSnapshot) { tombstones(sn, ttMaxOcc) }, false},
		{"table slot repeated", func(sn *EngineSnapshot) { sn.TT.Slots = append(sn.TT.Slots, sn.TT.Slots[0]) }, false},
		{"profile next", func(sn *EngineSnapshot) { sn.Prof.Next = 1 << 30 }, false},
		{"profile slot", func(sn *EngineSnapshot) { sn.Prof.Slots[0].Slot = 1 << 31 }, false},
		{"profile slot repeated", func(sn *EngineSnapshot) { sn.Prof.Slots[1].Slot = sn.Prof.Slots[0].Slot }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var doctored EngineSnapshot
			if err := json.Unmarshal(blob, &doctored); err != nil {
				t.Fatal(err)
			}
			c.doctor(&doctored)
			e, err := RestoreEngine(p, &doctored)
			if !c.resumes {
				if err == nil || !strings.HasPrefix(err.Error(), "tol: ") {
					t.Fatalf("RestoreEngine error = %v, want a tol error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resumed run panicked: %v", r)
				}
			}()
			drainStream(e, &discard)
			if err := e.Err(); err != nil || !e.Halted() {
				t.Fatalf("resumed run: err %v, halted %v", err, e.Halted())
			}
			if got, want := mustStatsJSON(t, &e.Stats), mustStatsJSON(t, &ref.Stats); !bytes.Equal(got, want) {
				t.Fatalf("final stats differ:\nresumed:       %s\nuninterrupted: %s", got, want)
			}
		})
	}
}
