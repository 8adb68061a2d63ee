package store

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/darco"
	"repro/internal/timing"
)

// tinyRecord simulates one small benchmark and wraps it in the Record
// interchange form, returning the memo key it files under.
func tinyRecord(t *testing.T) (string, *darco.Record) {
	t.Helper()
	job, err := darco.WithWorkload("synthetic:462.libquantum", 0.1, darco.WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	res, err := darco.NewSession(darco.WithWorkers(1)).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rec := darco.NewRecord(job.Name, "", job.Scale, timing.ModeShared, res, nil)
	return key, &rec
}

// TestPutGetRoundTrip persists one real simulation result, reopens the
// store (the process-restart equivalent) and requires the fetched
// Record to be byte-identical to what was stored.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, rec := tinyRecord(t)
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, rec); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh Store over the same directory.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok, err := st2.GetRaw(key)
	if err != nil || !ok {
		t.Fatalf("GetRaw after reopen: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("stored record bytes differ after reopen:\n got %d bytes\nwant %d bytes", len(raw), len(want))
	}
	got, ok, err := st2.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	reraw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reraw, want) {
		t.Fatalf("decoded record re-marshals to different bytes (Result JSON no longer round-trips exactly)")
	}

	// No leftover temporaries from the atomic write path.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Errorf("leftover temporary %s after Put", de.Name())
		}
	}
}

// TestCorruptEntryTolerated damages a store the ways a torn write or a
// SIGKILL mid-Put can and requires the damage to be contained: Get on
// a damaged key misses, Get on the good key still hits, List skips the
// bad files instead of failing, and a leftover temporary file is not
// an entry to Usage or EvictToSize.
func TestCorruptEntryTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := darco.Record{Benchmark: "good", Mode: "shared"}
	for _, key := range []string{"good-key", "bad-key", "cut-key"} {
		if err := st.Put(key, &rec); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(st.path("cut-key"))
	if err != nil {
		t.Fatal(err)
	}
	for path, content := range map[string][]byte{
		st.path("bad-key"): []byte("{torn"),
		// An entry truncated mid-envelope.
		st.path("cut-key"): whole[:len(whole)/2],
		// What a writer killed before its rename leaves behind.
		filepath.Join(dir, tmpPrefix+"123"): whole[:len(whole)/2],
		// An unrelated junk file in the directory must also be ignored.
		filepath.Join(dir, "README.txt"): []byte("not an entry"),
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, key := range []string{"bad-key", "cut-key"} {
		if _, ok, err := st.Get(key); err != nil || ok {
			t.Fatalf("Get(%s): got ok=%v err=%v, want miss without error", key, ok, err)
		}
		if _, ok, err := st.GetRaw(key); err != nil || ok {
			t.Fatalf("GetRaw(%s): got ok=%v err=%v, want miss without error", key, ok, err)
		}
		if _, _, ok, err := st.GetRawByAddr(Addr(key)); err != nil || ok {
			t.Fatalf("GetRawByAddr(%s): got ok=%v err=%v, want miss without error", key, ok, err)
		}
	}
	if got, ok, err := st.Get("good-key"); err != nil || !ok || got.Benchmark != "good" {
		t.Fatalf("good entry after corruption elsewhere: ok=%v err=%v rec=%+v", ok, err, got)
	}
	metas, err := st.List()
	if err != nil {
		t.Fatalf("List with corrupt entry present: %v", err)
	}
	if len(metas) != 1 || metas[0].Benchmark != "good" {
		t.Fatalf("List = %+v, want exactly the good entry", metas)
	}
	if metas[0].Addr != Addr("good-key") {
		t.Fatalf("List addr = %s, want %s", metas[0].Addr, Addr("good-key"))
	}

	// Usage and EvictToSize work on entry files without opening them: the
	// damaged entries still occupy quota (eviction is what reclaims them),
	// the temporary and the junk file are neither counted nor removed.
	var size int64
	for _, key := range []string{"good-key", "bad-key", "cut-key"} {
		info, err := os.Stat(st.path(key))
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	if n, bytes, err := st.Usage(); err != nil || n != 3 || bytes != size {
		t.Fatalf("Usage = %d entries, %d bytes, %v; want 3 entries, %d bytes", n, bytes, err, size)
	}
	if removed, freed, err := st.EvictToSize(1); err != nil || removed != 3 || freed != size {
		t.Fatalf("EvictToSize(1) = %d removed, %d freed, %v; want 3 removed, %d freed", removed, freed, err, size)
	}
	for _, name := range []string{tmpPrefix + "123", "README.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("EvictToSize touched a non-entry: %v", err)
		}
	}
}

// TestConcurrentPutSameKey hammers one key from many goroutines; every
// Put must succeed and the surviving entry must be one complete,
// decodable record (atomic rename: last writer wins, never a torn
// file).
func TestConcurrentPutSameKey(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := darco.Record{Benchmark: "462.libquantum", Mode: "shared", Scale: 0.1}
			errs[i] = st.Put("contended-key", &rec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, ok, err := st.Get("contended-key")
	if err != nil || !ok {
		t.Fatalf("Get after concurrent Puts: ok=%v err=%v", ok, err)
	}
	if got.Benchmark != "462.libquantum" || got.Scale != 0.1 {
		t.Fatalf("surviving record = %+v, want a complete writer record", got)
	}
}

// TestSessionStoreHitSurvivesRestart is the controller-level
// round-trip: a Session with a store runs once, a second Session over
// the same directory (a restarted replica) serves the identical job
// from the store — EventCached, no program build, byte-identical
// record.
func TestSessionStoreHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	job, err := darco.WithWorkload("synthetic:429.mcf", 0.1, darco.WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}

	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := darco.NewSession(darco.WithStore(st1)).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	raw1, ok, err := st1.GetRaw(key)
	if err != nil || !ok {
		t.Fatalf("store after first run: ok=%v err=%v", ok, err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []darco.EventKind
	sess2 := darco.NewSession(darco.WithStore(st2), darco.WithEvents(func(ev darco.Event) {
		kinds = append(kinds, ev.Kind)
	}))
	res2, err := sess2.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != darco.EventCached {
		t.Fatalf("restart events = %v, want exactly [cached]", kinds)
	}
	if res1.Timing.Cycles != res2.Timing.Cycles || res1.GuestDyn() != res2.GuestDyn() {
		t.Fatalf("restart result differs: %d/%d cycles, %d/%d guest insts",
			res1.Timing.Cycles, res2.Timing.Cycles, res1.GuestDyn(), res2.GuestDyn())
	}
	rec2 := darco.NewRecord(job.Name, job.Program.Meta().Suite, job.Scale, timing.ModeShared, res2, nil)
	raw2, err := json.Marshal(&rec2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("record rebuilt from the store-served result is not byte-identical to the persisted record")
	}
}
