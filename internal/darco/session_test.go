package darco

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/workload"
)

// benchJob is the catalog benchmark at scale under DefaultConfig with
// co-simulation off.
func benchJob(t *testing.T, name string, scale float64) Job {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(scale)
	job := Job{
		Name:    spec.Name,
		Variant: fmt.Sprintf("scale=%g", scale),
		Program: workload.SpecProgram{Spec: spec},
		Config:  DefaultConfig(),
	}
	job.Config.TOL.Cosim = false
	return job
}

// TestSessionVariantsDoNotCollide runs the same benchmark at two
// scales in one session and requires two distinct executions: the
// Variant field keeps differently scaled programs out of each other's
// cache slots.
func TestSessionVariantsDoNotCollide(t *testing.T) {
	var mu sync.Mutex
	started := 0
	s := NewSession(WithWorkers(2), WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			mu.Lock()
			started++
			mu.Unlock()
		}
	}))
	small, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Errorf("executions = %d, want 2 (scale variants collided)", started)
	}
	if small.GuestDyn() >= large.GuestDyn() {
		t.Errorf("scale 0.1 ran %d guest insts, scale 0.2 ran %d; want smaller < larger",
			small.GuestDyn(), large.GuestDyn())
	}
}

// TestSessionMemoizes submits the same job twice and requires a single
// simulation: the second call must be a cache hit.
func TestSessionMemoizes(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventKind]int{}
	s := NewSession(WithWorkers(2), WithEvents(func(ev Event) {
		mu.Lock()
		counts[ev.Kind]++
		mu.Unlock()
	}))
	job := benchJob(t, "462.libquantum", 0.1)
	r1, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memoized run returned a different Result pointer")
	}
	if counts[EventStarted] != 1 || counts[EventCached] != 1 {
		t.Errorf("events: started=%d cached=%d, want 1/1", counts[EventStarted], counts[EventCached])
	}

	// A different config must NOT hit the cache.
	alt := job
	alt.Config.Mode = timing.ModeSplit
	if _, err := s.Run(context.Background(), alt); err != nil {
		t.Fatal(err)
	}
	if counts[EventStarted] != 2 {
		t.Errorf("split-mode run was served from the shared-mode cache (started=%d)", counts[EventStarted])
	}
}

// TestSessionConcurrentIdentical runs the same job from many
// goroutines at once and requires exactly one execution with all
// callers sharing its result.
func TestSessionConcurrentIdentical(t *testing.T) {
	var mu sync.Mutex
	started := 0
	s := NewSession(WithWorkers(4), WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			mu.Lock()
			started++
			mu.Unlock()
		}
	}))
	job := benchJob(t, "470.lbm", 0.1)
	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Run(context.Background(), job)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if started != 1 {
		t.Errorf("concurrent identical jobs executed %d times, want 1", started)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different Result pointer", i)
		}
	}
}

// TestSessionBatchMatchesSequential is the core determinism guarantee:
// a concurrent batch over distinct benchmarks must produce results
// byte-identical to one-at-a-time execution.
func TestSessionBatchMatchesSequential(t *testing.T) {
	names := []string{"462.libquantum", "400.perlbench", "107.novis_ragdoll"}

	sequential := make(map[string][]byte)
	for _, n := range names {
		job := benchJob(t, n, 0.1)
		res, err := NewSession(WithWorkers(1)).Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sequential[n] = b
	}

	s := NewSession(WithWorkers(4))
	var jobs []Job
	for _, n := range names {
		jobs = append(jobs, benchJob(t, n, 0.1))
	}
	for _, br := range s.RunBatch(context.Background(), jobs) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(sequential[br.Job.Name]) {
			t.Errorf("%s: concurrent result differs from sequential", br.Job.Name)
		}
	}
}

// TestSessionBatchReportsPerJobErrors checks a bad job surfaces its
// own error without stopping the rest of the batch.
func TestSessionBatchReportsPerJobErrors(t *testing.T) {
	s := NewSession(WithWorkers(2))
	boom := errors.New("boom")
	jobs := []Job{
		benchJob(t, "462.libquantum", 0.1),
		{Name: "broken", Program: workload.Func("broken", func() (*guest.Program, error) { return nil, boom }),
			Config: DefaultConfig()},
	}
	out := s.RunBatch(context.Background(), jobs)
	if out[0].Err != nil {
		t.Errorf("good job failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, boom) {
		t.Errorf("bad job error = %v, want wrapped boom", out[1].Err)
	}
}

// TestSessionPanickingJobFails: a job whose program panics while
// building fails with the panic as its error and a failed event, and
// the next job on the same single-slot session still runs.
func TestSessionPanickingJobFails(t *testing.T) {
	var kinds []EventKind
	s := NewSession(WithWorkers(1), WithEvents(func(ev Event) {
		if ev.Job == "explodes" {
			kinds = append(kinds, ev.Kind)
		}
	}))
	bad := JobForProgram(workload.Func("explodes", func() (*guest.Program, error) { panic("kaboom") }), 1)
	if _, err := s.Run(context.Background(), bad); err == nil || err.Error() != "explodes: panic: kaboom" {
		t.Fatalf("err = %v, want %q", err, "explodes: panic: kaboom")
	}
	if n := len(kinds); n == 0 || kinds[n-1] != EventFailed {
		t.Errorf("events %v, want the job to end failed", kinds)
	}
	if _, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.1)); err != nil {
		t.Fatalf("job after the panic: %v", err)
	}
}

// TestSessionRejectsZeroConfig: a hand-built Job that never set its
// Config is rejected by Session.Run before it takes a worker slot —
// the zero timing geometry would otherwise panic inside the simulator.
func TestSessionRejectsZeroConfig(t *testing.T) {
	var kinds []EventKind
	s := NewSession(WithWorkers(1), WithEvents(func(ev Event) { kinds = append(kinds, ev.Kind) }))
	job := benchJob(t, "462.libquantum", 0.1)
	job.Config = Config{}
	if _, err := s.Run(context.Background(), job); err == nil || !strings.Contains(err.Error(), "invalid config") {
		t.Fatalf("err = %v, want an invalid-config rejection", err)
	}
	if len(kinds) != 1 || kinds[0] != EventFailed {
		t.Errorf("events %v, want a lone failed event (never queued or started)", kinds)
	}
}

// TestSessionPreload checks that an externally supplied result seeds
// the memo cache under the job's Key: the seeded job is served without
// simulating, while the same name and mode under another Config or
// Variant simulates, and a job with an invalid Config is refused with
// its Key error.
func TestSessionPreload(t *testing.T) {
	started := 0
	s := NewSession(WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			started++
		}
	}))
	job := benchJob(t, "462.libquantum", 0.1)
	canned := &Result{Timing: &timing.Result{Cycles: 42}}
	if err := s.Preload(job, canned); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res != canned || started != 0 {
		t.Fatalf("preloaded job: result %p (want %p), %d runs started (want 0)", res, canned, started)
	}

	batched := job
	batched.Config.Timing.StreamBatch = 256
	renamed := job
	renamed.Variant = "other"
	for _, j := range []Job{batched, renamed} {
		res, err := s.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if res == canned {
			t.Errorf("job %s (variant %q) was served a result preloaded under another key", j.Name, j.Variant)
		}
	}
	if started != 2 {
		t.Errorf("%d runs started, want 2 (one per non-preloaded key)", started)
	}

	bad := job
	bad.Config = Config{}
	_, keyErr := bad.Key()
	if err := s.Preload(bad, canned); err == nil || keyErr == nil || err.Error() != keyErr.Error() {
		t.Errorf("Preload of an invalid config: err = %v, want the Key error %v", err, keyErr)
	}
}

// memStore is an in-memory ResultStore that counts its traffic.
type memStore struct {
	mu         sync.Mutex
	m          map[string]json.RawMessage
	gets, puts int
}

func (s *memStore) GetRaw(key string) (json.RawMessage, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	raw, ok := s.m[key]
	return raw, ok, nil
}

func (s *memStore) PutRaw(key string, raw json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = raw
	return nil
}

// TestSessionRecordBytes: a session with a store encodes a fresh
// record once and reads a stored one once, and RecordBytes hands back
// exactly the bytes the store holds; a memo hit touches the store not
// at all. Sessions without a store, and preloaded results, hold no
// bytes.
func TestSessionRecordBytes(t *testing.T) {
	ctx := context.Background()
	job := benchJob(t, "462.libquantum", 0.1)
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	st := &memStore{m: map[string]json.RawMessage{}}
	expect := func(phase string, gets, puts int) {
		t.Helper()
		if st.gets != gets || st.puts != puts {
			t.Errorf("%s: %d GetRaw and %d PutRaw, want %d and %d", phase, st.gets, st.puts, gets, puts)
		}
		st.gets, st.puts = 0, 0
	}

	s := NewSession(WithWorkers(1), WithStore(st))
	res, err := s.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	expect("cold", 1, 1)
	rec := NewRecord(job.Name, jobSuite(&job), job.Scale, job.Config.Mode, res, nil)
	want, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := s.RecordBytes(key); !ok || string(raw) != string(want) || string(st.m[key]) != string(want) {
		t.Fatalf("cold: RecordBytes ok=%v, %d bytes; stored %d; want the %d bytes of json.Marshal(NewRecord(...))", ok, len(raw), len(st.m[key]), len(want))
	}
	if _, err := s.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	expect("memo hit", 0, 0)

	s2 := NewSession(WithWorkers(1), WithStore(st))
	if _, err := s2.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	expect("store hit", 1, 0)
	if raw, ok := s2.RecordBytes(key); !ok || string(raw) != string(want) {
		t.Fatalf("store hit: RecordBytes ok=%v, %d bytes, want the stored %d", ok, len(raw), len(want))
	}

	plain := NewSession(WithWorkers(1))
	if _, err := plain.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.RecordBytes(key); ok {
		t.Error("a session without a store holds record bytes")
	}
	pre := NewSession(WithStore(st))
	if err := pre.Preload(job, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := pre.RecordBytes(key); ok {
		t.Error("a preloaded result holds record bytes")
	}
	if _, ok := pre.RecordBytes("no such key"); ok {
		t.Error("an unknown key holds record bytes")
	}
}
