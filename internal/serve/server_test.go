package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/darco"
	"repro/internal/guest"
	"repro/internal/store"
	"repro/internal/workload"
)

// blockSource is a test workload source whose programs block in
// Build until their gate is released — the handle the scheduling
// tests use to hold a worker busy and pile up a queue
// deterministically.
type blockSource struct{}

var blockGates sync.Map // program name -> chan struct{}

func (blockSource) Scheme() string { return "blocktest" }

func (blockSource) Open(name string) (workload.Program, error) {
	return blockProgram{name: name}, nil
}

type blockProgram struct{ name string }

func (p blockProgram) Name() string        { return p.name }
func (p blockProgram) Meta() workload.Meta { return workload.Meta{Source: "blocktest", Phases: 1} }

func (p blockProgram) Build() (*guest.Program, error) {
	if ch, ok := blockGates.Load(p.name); ok {
		<-ch.(chan struct{})
	}
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		return nil, err
	}
	return spec.Scale(0.05).Build()
}

func init() {
	workload.Register(blockSource{})
}

// gatedRef registers a gate for one blocktest program and returns its
// reference plus the release function.
func gatedRef(t *testing.T, name string) (string, func()) {
	t.Helper()
	ch := make(chan struct{})
	if _, loaded := blockGates.LoadOrStore(name, ch); loaded {
		t.Fatalf("blocktest program %q reused across tests", name)
	}
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	// The gate map is process-global: free the name with the test, or
	// a second run of it in the same process (-count=2) finds it taken.
	t.Cleanup(func() {
		release()
		blockGates.Delete(name)
	})
	return "blocktest:" + name, release
}

// newTestServer starts a Server over an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, NewClient(ts.URL)
}

func submitTiny(t *testing.T, c *Client, workloadRef string) SubmitResponse {
	t.Helper()
	cosim := false
	resp, err := c.Submit(context.Background(), SubmitRequest{
		Workload: workloadRef,
		Scale:    0.1,
		Knobs:    darco.Knobs{Cosim: &cosim},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitState polls one job until it reaches the wanted state.
func waitState(t *testing.T, c *Client, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitEventsResult drives the full client path: submit, stream
// the SSE event log, fetch the Record.
func TestSubmitEventsResult(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	resp := submitTiny(t, c, "synthetic:462.libquantum")
	if resp.ID == "" || resp.Key == "" || resp.Addr == "" {
		t.Fatalf("submit response incomplete: %+v", resp)
	}

	var kinds []string
	if err := c.Events(context.Background(), resp.ID, func(ev WireEvent) {
		kinds = append(kinds, ev.Kind)
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 3 || kinds[0] != "queued" || kinds[1] != "started" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("event kinds = %v, want queued, started, ..., done", kinds)
	}
	for i, k := range kinds[2 : len(kinds)-1] {
		if k != "progress" {
			t.Fatalf("event %d = %q, want progress", i+2, k)
		}
	}

	rec, err := c.Result(context.Background(), resp.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Benchmark != "462.libquantum" || rec.Error != "" || rec.Result == nil {
		t.Fatalf("record = %s/%q result=%v", rec.Benchmark, rec.Error, rec.Result != nil)
	}
	if rec.Summary.Cycles == 0 || rec.Summary.Cycles != rec.Result.Timing.Cycles {
		t.Fatalf("summary cycles %d vs result cycles %d", rec.Summary.Cycles, rec.Result.Timing.Cycles)
	}
}

// TestRestartServedFromPersistentStore is the acceptance path of the
// serving subsystem: a full server restart between submit and
// re-submit of the same (workload, config) job serves the second
// request from the persistent store — EventCached, no re-simulation —
// and the fetched Record is byte-identical to the first run.
func TestRestartServedFromPersistentStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(Config{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(srv1)
	c1 := NewClient(ts1.URL)
	resp1 := submitTiny(t, c1, "synthetic:470.lbm")
	raw1, err := c1.ResultRaw(ctx, resp1.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c1, resp1.ID, StateDone)
	if st.FromCache {
		t.Fatal("first run claims to be served from cache")
	}
	ts1.Close()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Full restart: a new store handle, a new server, a new client.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Shutdown(ctx)
	c2 := NewClient(ts2.URL)
	resp2 := submitTiny(t, c2, "synthetic:470.lbm")
	if resp2.Key != resp1.Key || resp2.Addr != resp1.Addr {
		t.Fatalf("memo key changed across restart: %q vs %q", resp2.Key, resp1.Key)
	}

	var kinds []string
	if err := c2.Events(ctx, resp2.ID, func(ev WireEvent) { kinds = append(kinds, ev.Kind) }); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if k == "started" {
			t.Fatalf("restarted server re-simulated: events %v", kinds)
		}
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != "cached" {
		t.Fatalf("restart events = %v, want ... cached", kinds)
	}
	st2nd := waitState(t, c2, resp2.ID, StateDone)
	if !st2nd.FromCache {
		t.Fatal("restarted job not marked from_cache")
	}

	raw2, err := c2.ResultRaw(ctx, resp2.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("restart result not byte-identical: %d vs %d bytes", len(raw1), len(raw2))
	}

	// The store endpoint serves the same bytes by content address.
	rawStore, err := c2.ResultRaw(ctx, resp2.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawStore, raw1) {
		t.Fatal("result endpoint not stable across fetches")
	}
}

// TestFairQueuingAcrossTenants pins the acceptance property of the
// scheduler: with one worker, tenant A's four-job batch cannot starve
// tenant B's single job — B runs after at most one more A job.
func TestFairQueuingAcrossTenants(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	refs := map[string]string{}
	var release []func()
	for _, name := range []string{"a1", "a2", "a3", "a4", "b1"} {
		ref, rel := gatedRef(t, "fair-"+name)
		refs[name] = ref
		release = append(release, rel)
	}
	submit := func(name, tenant string) string {
		resp, err := c.Submit(ctx, SubmitRequest{Workload: refs[name], Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return resp.ID
	}

	a1 := submit("a1", "tenant-a")
	waitState(t, c, a1, StateRunning) // the worker is now held by A's first job
	a2 := submit("a2", "tenant-a")
	a3 := submit("a3", "tenant-a")
	a4 := submit("a4", "tenant-a")
	// Tenant B's name needs query escaping on its way through GET /jobs.
	const tenantB = "a&b c"
	b1 := submit("b1", tenantB)

	for _, rel := range release {
		rel()
	}
	ids := map[string]string{"a1": a1, "a2": a2, "a3": a3, "a4": a4, "b1": b1}
	seq := map[string]int{}
	for name, id := range ids {
		seq[name] = waitState(t, c, id, StateDone).StartSeq
	}

	// Exact round-robin with one worker: a1 first, then one more A job
	// (a2 was at the head of A's FIFO when B arrived), then B's job,
	// then the rest of A's batch.
	want := map[string]int{"a1": 1, "a2": 2, "b1": 3, "a3": 4, "a4": 5}
	for name, w := range want {
		if seq[name] != w {
			t.Fatalf("dispatch order %v, want %v (tenant B starved or misordered)", seq, want)
		}
	}

	// The tenant filter of the job listing round-trips any tenant name.
	for tenant, n := range map[string]int{"tenant-a": 4, tenantB: 1} {
		jobs, err := c.Jobs(ctx, tenant)
		if err != nil {
			t.Fatalf("Jobs(%q): %v", tenant, err)
		}
		if len(jobs) != n {
			t.Fatalf("Jobs(%q) lists %d jobs, want %d: %+v", tenant, len(jobs), n, jobs)
		}
		if tenant == tenantB && (jobs[0].ID != b1 || jobs[0].Tenant != tenantB) {
			t.Fatalf("Jobs(%q) = %+v, want job %s", tenant, jobs[0], b1)
		}
	}
}

// TestAdmissionControl fills the bounded queue and requires the next
// submission to bounce with 429 while earlier jobs still complete.
func TestAdmissionControl(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueLimit: 2})
	ctx := context.Background()

	blockRef, release := gatedRef(t, "admit-block")
	resp, err := c.Submit(ctx, SubmitRequest{Workload: blockRef})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, resp.ID, StateRunning)

	q1ref, releaseQ1 := gatedRef(t, "admit-q1")
	q2ref, releaseQ2 := gatedRef(t, "admit-q2")
	q1, err := c.Submit(ctx, SubmitRequest{Workload: q1ref})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Submit(ctx, SubmitRequest{Workload: q2ref})
	if err != nil {
		t.Fatal(err)
	}

	q3ref, _ := gatedRef(t, "admit-q3")
	if _, err := c.Submit(ctx, SubmitRequest{Workload: q3ref}); !IsOverloaded(err) {
		t.Fatalf("submit over the queue limit: err = %v, want 429", err)
	}

	release()
	releaseQ1()
	releaseQ2()
	waitState(t, c, resp.ID, StateDone)
	waitState(t, c, q1.ID, StateDone)
	waitState(t, c, q2.ID, StateDone)
}

// TestRemoteSession drives a local darco.Session with WithRemote at a
// test server and requires results identical to local simulation,
// plus client-side memoization of the repeated job.
func TestRemoteSession(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	job, err := darco.WithWorkload("synthetic:429.mcf", 0.1, darco.WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	local, err := darco.NewSession().Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}

	var kinds []darco.EventKind
	sess := darco.NewSession(darco.WithRemote(c), darco.WithEvents(func(ev darco.Event) {
		kinds = append(kinds, ev.Kind)
	}))
	remote, err := sess.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Timing.Cycles != local.Timing.Cycles || remote.GuestDyn() != local.GuestDyn() {
		t.Fatalf("remote run differs from local: %d vs %d cycles", remote.Timing.Cycles, local.Timing.Cycles)
	}

	// Repeat: the local session memoizes, so no second server job.
	if _, err := sess.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	if got := len(kinds); got == 0 || kinds[got-1] != darco.EventCached {
		t.Fatalf("repeat run events = %v, want trailing cached", kinds)
	}
	srv.mu.Lock()
	serverJobs := len(srv.jobs)
	srv.mu.Unlock()
	if serverJobs != 1 {
		t.Fatalf("server saw %d jobs, want 1 (client-side memoization)", serverJobs)
	}

	// A job with no workload reference cannot run remotely.
	specJob := darco.JobForSpec(mustSpec(t, "470.lbm"), 1, darco.WithCosim(false))
	if _, err := sess.Run(ctx, specJob); err == nil {
		t.Fatal("reference-less job ran remotely, want error")
	}
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Scale(0.1)
}

// TestGracefulShutdown drains: queued jobs fail fast with the shutdown
// error, the in-flight job is allowed to finish, and new submissions
// are rejected with 503.
func TestGracefulShutdown(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	blockRef, release := gatedRef(t, "drain-block")
	running, err := c.Submit(ctx, SubmitRequest{Workload: blockRef})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, StateRunning)
	queuedRef, _ := gatedRef(t, "drain-queued")
	queued, err := c.Submit(ctx, SubmitRequest{Workload: queuedRef})
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(sctx)
	}()

	// The queued job is failed immediately by the drain.
	st := waitState(t, c, queued.ID, StateFailed)
	if st.Error == "" {
		t.Fatal("drained job has no error")
	}
	rec, err := c.Result(ctx, queued.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Error == "" {
		t.Fatalf("drained job record = %+v, want shutdown error recorded", rec)
	}

	// Admission is closed while draining.
	lateRef, _ := gatedRef(t, "drain-late")
	if _, err := c.Submit(ctx, SubmitRequest{Workload: lateRef}); err == nil {
		t.Fatal("submission accepted during shutdown")
	} else {
		var se *StatusError
		if !asStatus(err, &se) || se.Code != 503 {
			t.Fatalf("submission during shutdown: %v, want 503", err)
		}
	}

	// The in-flight job drains to completion and shutdown succeeds.
	release()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := waitState(t, c, running.ID, StateDone); st.Error != "" {
		t.Fatalf("in-flight job failed during drain: %s", st.Error)
	}
}

func asStatus(err error, se **StatusError) bool {
	for err != nil {
		if s, ok := err.(*StatusError); ok {
			*se = s
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestSubmitValidation exercises the 400 paths: unknown workload,
// unknown mode, contradictory pipeline flags.
func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	bad := []SubmitRequest{
		{},
		{Workload: "nosuchsource:x"},
		{Workload: "synthetic:does-not-exist"},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{Mode: "sideways"}},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{Passes: "nosuchpass"}},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{OptLevel: intp(0), Passes: "dce"}},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{CCSize: intp(2), CCPolicy: "nosuchpolicy"}},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{CCPolicy: "flush-all"}},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{ISA: "sparc"}},
		{Workload: "synthetic:470.lbm", Knobs: darco.Knobs{Sample: &darco.SamplePlan{Every: -1}}},
	}
	for i, req := range bad {
		_, err := c.Submit(ctx, req)
		var se *StatusError
		if !asStatus(err, &se) || se.Code != 400 {
			t.Errorf("bad submit %d (%+v): err = %v, want 400", i, req, err)
		}
	}
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health after bad submits: %v", err)
	}
}

func intp(v int) *int { return &v }

// TestDeleteJob pins the manual registry-eviction endpoint: a running
// job is refused, a completed one is removed and subsequent lookups
// 404.
func TestDeleteJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	ref, release := gatedRef(t, "delete-running")
	resp, err := c.Submit(ctx, SubmitRequest{Workload: ref})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, resp.ID, StateRunning)

	var se *StatusError
	if _, err := c.Delete(ctx, resp.ID); !asStatus(err, &se) || se.Code != 409 {
		t.Fatalf("delete of running job: err = %v, want 409", err)
	}

	release()
	waitState(t, c, resp.ID, StateDone)
	st, err := c.Delete(ctx, resp.ID)
	if err != nil {
		t.Fatalf("delete of completed job: %v", err)
	}
	if st.ID != resp.ID || st.State != StateDone {
		t.Fatalf("deleted status = %+v, want final done status of %s", st, resp.ID)
	}

	if _, err := c.Status(ctx, resp.ID); !asStatus(err, &se) || se.Code != 404 {
		t.Fatalf("status after delete: err = %v, want 404", err)
	}
	if _, err := c.Delete(ctx, resp.ID); !asStatus(err, &se) || se.Code != 404 {
		t.Fatalf("second delete: err = %v, want 404", err)
	}
	if _, err := c.Delete(ctx, "j-999999"); !asStatus(err, &se) || se.Code != 404 {
		t.Fatalf("delete of unknown job: err = %v, want 404", err)
	}
}

// TestCompletedJobTTLEviction pins the registry TTL: a job terminal for
// longer than Config.JobTTL disappears from the registry on the next
// API touch, while fresh completed jobs survive.
func TestCompletedJobTTLEviction(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, JobTTL: time.Hour})
	ctx := context.Background()

	resp := submitTiny(t, c, "synthetic:429.mcf")
	waitState(t, c, resp.ID, StateDone)

	// A freshly completed job survives a sweep.
	jobs, err := c.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != resp.ID {
		t.Fatalf("jobs after completion = %+v, want the completed job", jobs)
	}

	// Age the job past the TTL; the next listing sweeps it out.
	srv.mu.Lock()
	j := srv.jobs[resp.ID]
	srv.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s missing from registry", resp.ID)
	}
	j.mu.Lock()
	j.doneAt = time.Now().Add(-2 * time.Hour)
	j.mu.Unlock()

	jobs, err = c.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("jobs after TTL expiry = %+v, want empty", jobs)
	}
	var se *StatusError
	if _, err := c.Status(ctx, resp.ID); !asStatus(err, &se) || se.Code != 404 {
		t.Fatalf("status after TTL eviction: err = %v, want 404", err)
	}
}

// TestStoreQuotaEnforcedAfterJobs pins Config.StoreMaxBytes: after each
// finished job the store is evicted down to the quota, coldest first.
func TestStoreQuotaEnforcedAfterJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A quota far below one record's size: after every run only the
	// newest entries that fit (possibly none) may remain, so the store
	// never grows without bound.
	_, c := newTestServer(t, Config{Workers: 1, Store: st, StoreMaxBytes: 1})

	for _, ref := range []string{"synthetic:470.lbm", "synthetic:429.mcf"} {
		resp := submitTiny(t, c, ref)
		waitState(t, c, resp.ID, StateDone)
	}
	_, bytes, err := st.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if bytes > 1 {
		t.Fatalf("store holds %d bytes, want quota of 1 enforced", bytes)
	}
}

func ExampleClient() {
	// A remote Session: every tool that takes darco.SessionOption can
	// execute on a darco-serve instance instead of simulating locally.
	cl := NewClient("http://127.0.0.1:8080")
	cl.Tenant = "docs"
	sess := darco.NewSession(darco.WithRemote(cl))
	job, err := darco.WithWorkload("synthetic:470.lbm", 1.0)
	if err != nil {
		fmt.Println(err)
		return
	}
	_, err = sess.Run(context.Background(), job)
	_ = err // network errors surface here exactly like local failures
	// Output:
}

// TestCancelJobs drives POST /jobs/{id}/cancel through both live
// states: a running job unwinds mid-simulation, a queued job settles
// without ever taking a worker, and terminal/unknown jobs are refused
// with 409/404.
func TestCancelJobs(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})

	// Hold the single worker with a gated job and queue one behind it.
	runRef, release := gatedRef(t, "cancel-running")
	running, err := c.Submit(context.Background(), SubmitRequest{Workload: runRef})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, StateRunning)
	queuedRef, _ := gatedRef(t, "cancel-queued")
	queued, err := c.Submit(context.Background(), SubmitRequest{Workload: queuedRef})
	if err != nil {
		t.Fatal(err)
	}

	// Both cancels are accepted while the jobs are live.
	if _, err := c.Cancel(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(context.Background(), running.ID); err != nil {
		t.Fatal(err)
	}

	// The running job unwinds at the engine's next context poll once
	// the gate opens; the queued one settles when the freed worker pops
	// it — without ever being dispatched (StartSeq stays 0).
	release()
	st := waitState(t, c, running.ID, StateCancelled)
	if st.Error == "" {
		t.Fatal("cancelled running job carries no error")
	}
	qst := waitState(t, c, queued.ID, StateCancelled)
	if qst.StartSeq != 0 {
		t.Fatalf("cancelled-while-queued job was dispatched: %+v", qst)
	}

	// The terminal record carries the cancellation error and the event
	// stream has a terminal event, so waiting clients settle.
	rec, err := c.Result(context.Background(), running.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Error == "" {
		t.Fatal("record of cancelled job has no error")
	}

	// Cancelling a settled job is refused; the result stands.
	var se *StatusError
	if _, err := c.Cancel(context.Background(), running.ID); !asStatus(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("cancel of terminal job: %v", err)
	}
	if _, err := c.Cancel(context.Background(), "j-999999"); !asStatus(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job: %v", err)
	}

	// Cancelled jobs are terminal for registry purposes: deletable.
	if _, err := c.Delete(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}
}
