// Package serve is the multi-tenant simulation service of the
// infrastructure: a long-running HTTP server that accepts jobs by
// workload reference + configuration, schedules them with per-tenant
// fair queuing over a bounded darco.Session worker pool, streams
// per-job progress events (Server-Sent Events), and serves results as
// the established darco.Record JSON interchange. Attached to a
// content-addressed store (internal/store) the server's cache hits
// survive restarts and are shared across replicas.
//
// The layering follows the controller's host-service pattern: the
// service hides the simulation machinery entirely — clients speak
// workload references and Records, never guest programs or engines.
//
//	POST /jobs              submit (SubmitRequest -> 202 SubmitResponse,
//	                        429 when the admission queue is full,
//	                        503 while shutting down)
//	GET  /jobs              list job statuses (?tenant= filters)
//	GET  /jobs/{id}         one JobStatus
//	POST /jobs/{id}/cancel  stop a queued or running job
//	                        (409 once the job is terminal)
//	DELETE /jobs/{id}       drop a completed job from the registry
//	                        (409 while queued or running)
//	GET  /jobs/{id}/events  SSE stream of WireEvents (replay + live)
//	GET  /jobs/{id}/result  the darco.Record (?wait=1 blocks until done)
//	GET  /store             persistent-store listing ([]store.Meta)
//	GET  /store/{addr}      one stored Record by content address
//	GET  /workloads         registered sources + enumerable programs
//	GET  /healthz           service health and queue depths
//
// Client (client.go) wraps the API and implements darco.RemoteExecutor,
// so any Session — and therefore cmd/darco, cmd/darco-suite and
// cmd/darco-figs — can target a remote server instead of simulating
// locally.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/darco"
	"repro/internal/store"
	"repro/internal/workload"
)

// DefaultQueueLimit bounds the admission queue when Config.QueueLimit
// is zero.
const DefaultQueueLimit = 256

// ErrShuttingDown is recorded on jobs that were still queued when the
// server began draining.
var ErrShuttingDown = errors.New("serve: server shutting down")

// ErrCancelled is recorded on jobs stopped by POST /jobs/{id}/cancel
// before they ran (a job cancelled mid-simulation carries the
// simulation's context error instead).
var ErrCancelled = errors.New("serve: job cancelled")

// Config configures a Server.
type Config struct {
	// Workers is the simulation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueLimit bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429 (0 =
	// DefaultQueueLimit, negative = unbounded).
	QueueLimit int
	// Store, when non-nil, persists every result and serves
	// restart-surviving cache hits.
	Store *store.Store
	// Base is the base run configuration submissions are resolved
	// against (nil = darco.DefaultConfig()).
	Base *darco.Config
	// Log receives one line per job lifecycle transition (nil =
	// silent).
	Log io.Writer
	// JobTTL, when positive, bounds how long completed (done or
	// failed) jobs stay in the in-memory registry: jobs terminal for
	// longer than the TTL are swept out on the next API touch. Results
	// persisted to the Store survive eviction; only the job id and its
	// event log are dropped. Zero keeps completed jobs forever.
	JobTTL time.Duration
	// StoreMaxBytes, when positive, is the persistent store's size
	// quota: after every finished job the least recently used entries
	// are evicted until the store fits (store.EvictToSize). Zero
	// disables the quota.
	StoreMaxBytes int64
}

// Server is the simulation service. Create it with NewServer, mount it
// as an http.Handler, and stop it with Shutdown.
type Server struct {
	workers    int
	queueLimit int
	st         *store.Store
	base       darco.Config
	log        io.Writer
	jobTTL     time.Duration
	storeMax   int64
	sess       *darco.Session
	queue      *fairQueue
	mux        *http.ServeMux

	runCtx     context.Context
	cancelRuns context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	closing  bool
	jobs     map[string]*job
	jobSeq   int
	startSeq int
	running  int
}

// NewServer builds the service and starts its worker pool.
func NewServer(cfg Config) *Server {
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	limit := cfg.QueueLimit
	if limit == 0 {
		limit = DefaultQueueLimit
	}
	base := darco.DefaultConfig()
	if cfg.Base != nil {
		base = *cfg.Base
		base.Progress = nil
	}
	runCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		workers:    workers,
		queueLimit: limit,
		st:         cfg.Store,
		base:       base,
		log:        cfg.Log,
		jobTTL:     cfg.JobTTL,
		storeMax:   cfg.StoreMaxBytes,
		queue:      newFairQueue(),
		runCtx:     runCtx,
		cancelRuns: cancel,
		jobs:       make(map[string]*job),
	}
	sessOpts := []darco.SessionOption{darco.WithWorkers(workers)}
	if s.st != nil {
		sessOpts = append(sessOpts, darco.WithStore(s.st))
	}
	s.sess = darco.NewSession(sessOpts...)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /store", s.handleStoreList)
	s.mux.HandleFunc("GET /store/{addr}", s.handleStoreGet)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP dispatches the service API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, "darco-serve: "+format+"\n", args...)
	}
}

// Shutdown drains the server: admission stops (new submissions get
// 503), jobs still queued fail immediately with ErrShuttingDown, and
// in-flight simulations are given until ctx's deadline to finish —
// then their contexts are cancelled and the shutdown completes once
// every worker has exited. It is the handler behind cmd/darco-serve's
// SIGINT/SIGTERM drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	s.mu.Unlock()
	if already {
		return errors.New("serve: Shutdown called twice")
	}
	for _, j := range s.queue.close() {
		j.note(darco.Event{Job: j.sjob.Name, Mode: j.cfg.Mode, Kind: darco.EventFailed, Err: ErrShuttingDown})
		j.finish(s.recordBytes(j, nil, ErrShuttingDown), ErrShuttingDown)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drained cleanly")
		return nil
	case <-ctx.Done():
		s.logf("drain deadline reached, cancelling in-flight jobs")
		s.cancelRuns()
		<-done
		return ctx.Err()
	}
}

// worker pulls jobs off the fair queue until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// recordBytes marshals the job's terminal Record: on success the full
// result, on failure the established error-carrying Record. When the
// session served the job from the persistent store, the stored bytes
// are returned verbatim, so a re-fetched result is byte-identical to
// the run that produced it.
func (s *Server) recordBytes(j *job, res *darco.Result, err error) json.RawMessage {
	if err == nil && j.isFromCache() && s.st != nil {
		if raw, ok, serr := s.st.GetRaw(j.key); serr == nil && ok {
			return raw
		}
	}
	var suite string
	if j.sjob.Program != nil {
		suite = j.sjob.Program.Meta().Suite
	}
	rec := darco.NewRecord(j.sjob.Name, suite, j.scale, j.cfg.Mode, res, err)
	raw, merr := json.Marshal(&rec)
	if merr != nil {
		raw, _ = json.Marshal(&darco.Record{Benchmark: j.sjob.Name, Mode: j.mode, Error: merr.Error()})
	}
	return raw
}

// sweepExpired drops completed jobs older than the registry TTL. It
// runs on every registry-touching request (submit, list, health), so a
// busy server converges without a background timer and an idle one
// holds nothing but what nobody asks about.
func (s *Server) sweepExpired() {
	if s.jobTTL <= 0 {
		return
	}
	cutoff := time.Now().Add(-s.jobTTL)
	var expired []string
	s.mu.Lock()
	for id, j := range s.jobs {
		if terminal, at := j.terminalAt(); terminal && at.Before(cutoff) {
			delete(s.jobs, id)
			expired = append(expired, id)
		}
	}
	s.mu.Unlock()
	for _, id := range expired {
		s.logf("job %s expired from registry (ttl %s)", id, s.jobTTL)
	}
}

// enforceStoreQuota applies the persistent store's size bound after a
// job's run may have grown it.
func (s *Server) enforceStoreQuota() {
	if s.st == nil || s.storeMax <= 0 {
		return
	}
	if removed, freed, err := s.st.EvictToSize(s.storeMax); err != nil {
		s.logf("store quota: %v", err)
	} else if removed > 0 {
		s.logf("store quota: evicted %d entries (%d bytes) to fit %d", removed, freed, s.storeMax)
	}
}

func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil {
		// Cancelled (or drained) while still queued: settle without
		// ever occupying a simulation slot.
		j.note(darco.Event{Job: j.sjob.Name, Mode: j.cfg.Mode, Kind: darco.EventFailed, Err: ErrCancelled})
		j.finish(s.recordBytes(j, nil, ErrCancelled), ErrCancelled)
		s.logf("job %s cancelled while queued", j.id)
		return
	}
	s.mu.Lock()
	s.startSeq++
	seq := s.startSeq
	s.running++
	s.mu.Unlock()
	j.setRunning(seq)
	s.logf("job %s start #%d (tenant %s, %s)", j.id, seq, j.tenant, j.ref)

	res, err := s.sess.Run(j.ctx, j.sjob)
	// The record is read before the quota can evict it, and the quota is
	// enforced before the job turns terminal, so a client that has seen
	// the job done never finds the store mid-eviction.
	raw := s.recordBytes(j, res, err)
	s.enforceStoreQuota()
	j.finish(raw, err)

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	switch {
	case err != nil && j.status().State == StateCancelled:
		s.logf("job %s cancelled: %v", j.id, err)
	case err != nil:
		s.logf("job %s failed: %v", j.id, err)
	case j.isFromCache():
		s.logf("job %s served from cache", j.id)
	default:
		s.logf("job %s done", j.id)
	}
}

// resolveConfig turns a submission into the fully resolved, validated
// run configuration: the server's base (or the submitted Config) with
// the request's knobs folded in.
func (s *Server) resolveConfig(req *SubmitRequest) (darco.Config, error) {
	cfg := s.base
	if req.Config != nil {
		cfg = *req.Config
		cfg.Progress = nil
		cfg.ProgressEvery = 0
	}
	if err := req.Knobs.Apply(&cfg); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.sweepExpired()
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, "workload reference required")
		return
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Darco-Tenant"); h != "" {
		tenant = h
	}
	if tenant == "" {
		tenant = "default"
	}
	cfg, err := s.resolveConfig(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	sjob, err := darco.WithWorkload(workload.RefForISA(req.Workload, cfg.ISA), scale, darco.WithConfig(cfg))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := sjob.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.jobSeq++
	id := fmt.Sprintf("j-%06d", s.jobSeq)
	j := newJob(s.runCtx, id, tenant, sjob, key, cfg)
	j.sjob.Events = j.note
	s.jobs[id] = j
	s.mu.Unlock()

	if !s.queue.tryPush(j, s.queueLimit) {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d queued jobs); retry later", s.queue.len())
		return
	}
	s.logf("job %s queued (tenant %s, %s, key %s)", id, tenant, req.Workload, key)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:    id,
		State: StateQueued,
		Key:   key,
		Addr:  store.Addr(key),
	})
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.sweepExpired()
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(all))
	for _, j := range all {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleDelete removes a completed job from the registry — the manual
// form of TTL eviction. A queued or running job is refused with 409;
// deleting never cancels work. Store entries are untouched, so a
// deleted job's result remains fetchable by content address.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st := j.status()
	if !terminalState(st.State) {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %s is %s; only completed jobs can be deleted", id, st.State)
		return
	}
	delete(s.jobs, id)
	s.mu.Unlock()
	s.logf("job %s deleted", id)
	writeJSON(w, http.StatusOK, st)
}

// handleCancel stops a queued or running job: its per-job context is
// cancelled and the job settles in the cancelled terminal state — a
// running simulation unwinds at its next cancellation check, a queued
// job settles when a worker pops it. Terminal jobs are refused with
// 409, so a cancel never retracts a result a client may have seen.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, "job %s is %s; only queued or running jobs can be cancelled",
			j.id, j.status().State)
		return
	}
	s.logf("job %s cancel requested", j.id)
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's event log as Server-Sent Events:
// the full history first, then live events until the job reaches a
// terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	cursor := 0
	for {
		evs, changed, terminal := j.snapshot(cursor)
		cursor += len(evs)
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			if fl != nil {
				fl.Flush()
			}
			continue // drain the log before sleeping
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if q := r.URL.Query().Get("wait"); q == "1" || q == "true" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	raw, state := j.record()
	if raw == nil {
		writeError(w, http.StatusConflict, "job %s is %s; poll /jobs/%s or fetch with ?wait=1", j.id, state, j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *Server) handleStoreList(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusNotFound, "no persistent store configured")
		return
	}
	metas, err := s.st.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if metas == nil {
		metas = []store.Meta{}
	}
	writeJSON(w, http.StatusOK, metas)
}

func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusNotFound, "no persistent store configured")
		return
	}
	addr := r.PathValue("addr")
	raw, _, ok, err := s.st.GetRawByAddr(addr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no store entry at %q", addr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	out := Workloads{Sources: workload.Sources(), Listed: map[string][]string{}}
	for _, scheme := range out.Sources {
		if src, ok := workload.LookupSource(scheme); ok {
			if l, ok := src.(workload.Lister); ok {
				out.Listed[scheme] = l.List()
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.sweepExpired()
	s.mu.Lock()
	running := s.running
	njobs := len(s.jobs)
	closing := s.closing
	s.mu.Unlock()
	status := "ok"
	if closing {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Health{
		Status:  status,
		Workers: s.workers,
		Queued:  s.queue.len(),
		Running: running,
		Store:   s.st != nil,
		Jobs:    njobs,
	})
}
