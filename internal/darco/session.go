package darco

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/workload"
)

// Job is one unit of batch work: a workload program plus the
// configuration options of the run. Name identifies the benchmark (it
// is the display label and the key Preload records match on); Variant
// distinguishes different programs sharing a Name — typically the
// workload source and scale — and participates in the memo-cache key
// alongside the hash of the resolved Config.
type Job struct {
	Name    string
	Variant string
	// Program is the deterministic guest-program factory of the job —
	// any workload.Program: a synthetic catalog spec, a file-defined
	// spec, a recorded trace replay, a phased composite, or a
	// hand-assembled program wrapped with workload.Func.
	Program workload.Program
	Opts    []Option

	// NoPreload excludes the job from the preload shortcut. Preloaded
	// Records are matched by (name, mode) only and carry no Config, so
	// jobs that deliberately vary the configuration for one benchmark —
	// e.g. the cache-pressure sweep's bounded-cache legs — must opt out
	// or they would be served a result from a different configuration.
	NoPreload bool

	// Ref is the workload Source-registry reference the program was
	// resolved from ("<source>:<name>"), when it was resolved from one
	// (WithWorkload fills it; hand-assembled jobs leave it empty). A
	// remote session (WithRemote) ships Ref plus the resolved Config to
	// a darco-serve instance instead of simulating locally, so only
	// reference-built jobs are remotely runnable.
	Ref string

	// Scale is the dynamic-size multiplier the program was scaled by
	// (0 means 1.0). It is informational — the scaled Program is
	// already baked into the job and Variant — but it travels into
	// Records built for the persistent store and into remote
	// submissions, which re-resolve Ref at this scale.
	Scale float64

	// Events, when non-nil, receives this job's progress events in
	// addition to the session-wide WithEvents stream — the hook
	// darco-serve uses to fan events out per submitted job. Like the
	// session stream it is observability only and never affects
	// results or cache keys.
	Events func(Event)
}

// EventKind classifies Session progress events.
type EventKind uint8

// Event kinds, in the order a job moves through them. EventCached
// replaces the Started/Done pair when the memo cache already holds the
// result.
const (
	EventQueued   EventKind = iota // job accepted, waiting for a worker
	EventStarted                   // job running on a worker
	EventProgress                  // periodic in-run report (Cycles set)
	EventDone                      // job finished successfully
	EventFailed                    // job finished with an error
	EventCached                    // job served from the memo cache
)

var eventKindNames = [...]string{"queued", "started", "progress", "done", "failed", "cached"}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "event?"
}

// ParseEventKind maps an EventKind.String() name back to the kind —
// the inverse used when decoding events from a darco-serve wire
// stream.
func ParseEventKind(s string) (EventKind, error) {
	for i, name := range eventKindNames {
		if s == name {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("darco: unknown event kind %q", s)
}

// Event is one per-job progress event streamed by a Session.
type Event struct {
	Job    string      `json:"job"`
	Mode   timing.Mode `json:"mode"`
	Kind   EventKind   `json:"kind"`
	Cycles uint64      `json:"cycles,omitempty"` // EventProgress and EventDone
	Err    error       `json:"-"`                // EventFailed
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithWorkers sets the worker-pool size (n < 1 selects GOMAXPROCS).
func WithWorkers(n int) SessionOption {
	return func(s *Session) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithEvents installs the per-job event stream. Events from concurrent
// jobs are delivered serially (the callback needs no locking), in an
// order that depends on scheduling; results never do.
func WithEvents(fn func(Event)) SessionOption {
	return func(s *Session) { s.events = fn }
}

// ResultStore is the persistence hook of a Session: a durable,
// shareable result cache keyed by the Session memo key (Job.Key — the
// program fingerprint × resolved-config hash). A session with a store
// consults it after a memory-cache miss and saves every successful run
// into it, so results survive process restarts and are shared across
// replicas pointed at the same store. internal/store implements it on
// disk; both methods must be safe for concurrent use.
type ResultStore interface {
	// Get returns the stored record for a memo key, reporting a miss
	// with ok=false. A record whose Result is nil counts as a miss.
	Get(key string) (rec *Record, ok bool, err error)
	// Put persists the record under the memo key, atomically replacing
	// any previous entry.
	Put(key string, rec *Record) error
}

// WithStore attaches a persistent result store to the session. Store
// hits are reported as EventCached exactly like memory-cache hits;
// store I/O errors degrade to simulation (a broken store never fails a
// run, it only loses the shortcut).
func WithStore(st ResultStore) SessionOption {
	return func(s *Session) { s.store = st }
}

// RemoteExecutor runs one resolved job on a remote darco-serve
// instance instead of the local machine. serve.Client implements it;
// install it with WithRemote.
type RemoteExecutor interface {
	// RunRemote submits the workload reference at the given scale with
	// the fully resolved configuration, streams remote progress into
	// events (nil-safe) until the job completes, and returns the
	// result. The configuration's Progress hook is stripped before the
	// call (it cannot cross the wire).
	RunRemote(ctx context.Context, ref string, scale float64, cfg Config, events func(Event)) (*Result, error)
}

// WithRemote makes the session execute jobs on a remote darco-serve
// instance: instead of simulating locally, each cache-missing job is
// submitted by workload reference + resolved Config. Only jobs built
// from a Source-registry reference (Job.Ref non-empty — anything from
// WithWorkload) are remotely runnable; hand-assembled programs fail
// with a clear error. Memoization, dedup of identical in-flight jobs
// and the worker-pool bound (here: concurrent outstanding requests)
// work exactly as for local execution.
func WithRemote(r RemoteExecutor) SessionOption {
	return func(s *Session) { s.remote = r }
}

// Session is the concurrent batch executor of the controller: a worker
// pool that runs many (program, mode, config) jobs, memoizes results
// under a config-hash cache key, and streams per-job progress events.
//
// Both the co-design engine and the timing simulator are fully
// deterministic and every run is independent, so results obtained
// through a Session are identical to sequential execution regardless
// of the worker count — the property the figure-regeneration harness
// relies on to parallelize the paper's 48-benchmark sweeps.
type Session struct {
	workers int
	events  func(Event)
	store   ResultStore
	remote  RemoteExecutor

	sem chan struct{}

	mu      sync.Mutex
	cache   map[string]*sessionEntry
	preload map[string]*Result

	evMu sync.Mutex
}

type sessionEntry struct {
	done chan struct{}
	res  *Result
	err  error
}

// NewSession builds a batch executor. With no options it uses
// GOMAXPROCS workers and streams no events.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		workers: runtime.GOMAXPROCS(0),
		cache:   make(map[string]*sessionEntry),
		preload: make(map[string]*Result),
	}
	for _, o := range opts {
		o(s)
	}
	s.sem = make(chan struct{}, s.workers)
	return s
}

// Workers returns the worker-pool size.
func (s *Session) Workers() int { return s.workers }

// notify delivers one event to the session-wide WithEvents stream and
// to the job's own Events hook; delivery is serial (the callbacks need
// no locking).
func (s *Session) notify(job *Job, ev Event) {
	if s.events == nil && job.Events == nil {
		return
	}
	s.evMu.Lock()
	if s.events != nil {
		s.events(ev)
	}
	if job.Events != nil {
		job.Events(ev)
	}
	s.evMu.Unlock()
}

// JobForSpec builds the session job for one already-scaled synthetic
// workload spec — the Spec-typed shorthand for JobForProgram.
func JobForSpec(spec workload.Spec, scale float64, opts ...Option) Job {
	return JobForProgram(workload.SpecProgram{Spec: spec}, scale, opts...)
}

// JobForProgram builds the session job for one already-scaled workload
// program. It is the single place the Variant cache-key component is
// derived from the program source, scale factor and content
// fingerprint, so every tool keys identically and two programs sharing
// a benchmark name (two traces recorded at different scales, a file:
// spec named after a catalog entry) never alias one memoized result.
// Non-synthetic programs opt out of the preload shortcut: preloaded
// Records are matched by benchmark name only, and a trace or phased
// program sharing a catalog name is not the run those records came
// from.
func JobForProgram(p workload.Program, scale float64, opts ...Option) Job {
	meta := p.Meta()
	variant := fmt.Sprintf("src=%s|scale=%g", meta.Source, scale)
	if meta.ISA != "" {
		// Folded in only when set so x86 programs (ISA empty) keep the
		// keys persistent stores already file results under. Same-named
		// benchmarks under different frontends are different programs
		// and must never share a memoized result.
		variant += "|isa=" + meta.ISA
	}
	if fp := workload.Fingerprint(p); fp != "" {
		variant += "|id=" + fp
	}
	return Job{
		Name:      p.Name(),
		Variant:   variant,
		Program:   p,
		Opts:      opts,
		NoPreload: meta.Source != workload.DefaultSource,
		Scale:     scale,
	}
}

// WithWorkload resolves a "<source>:<name>" workload reference (e.g.
// "synthetic:470.lbm", "file:mybench.json", "trace:run.trace.json",
// "phased:401.bzip2+462.libquantum"; a bare name means synthetic)
// through the workload Source registry, applies the scale factor, and
// returns the session job running it — the reference-string
// counterpart of JobForSpec shared by the command-line tools.
func WithWorkload(ref string, scale float64, opts ...Option) (Job, error) {
	p, err := workload.Open(ref)
	if err != nil {
		return Job{}, err
	}
	p, err = workload.ScaleProgram(p, scale)
	if err != nil {
		return Job{}, err
	}
	job := JobForProgram(p, scale, opts...)
	job.Ref = ref
	return job, nil
}

// resolve applies the job's options on top of DefaultConfig.
func (j *Job) resolve() Config {
	cfg := DefaultConfig()
	for _, o := range j.Opts {
		o(&cfg)
	}
	return cfg
}

// cacheKey derives the memo key: the job name and variant plus the
// hash of the JSON form of the resolved config (Progress is excluded
// via json:"-", so observability hooks never fragment the cache). A
// config that fails to marshal is an error: a nondeterministic
// fallback key would not only defeat sharing, it would poison any
// persistent ResultStore keyed by it across runs.
func cacheKey(name, variant string, cfg *Config) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("darco: config of job %q is not hashable: %w", name, err)
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(variant))
	h.Write([]byte{0})
	h.Write(b)
	return fmt.Sprintf("%s|%016x", name, h.Sum64()), nil
}

// Key returns the job's memo-cache key: "<name>|<16-hex-digit hash>"
// over the name, the variant (workload source, scale and content
// fingerprint) and the resolved configuration. It is the content
// address of the run — equal keys mean interchangeable results — and
// the key a persistent ResultStore files the record under. Invalid or
// unhashable configurations are errors, mirroring Session.Run.
func (j Job) Key() (string, error) {
	cfg := j.resolve()
	if err := cfg.Validate(); err != nil {
		return "", fmt.Errorf("%s: %w", j.Name, err)
	}
	return cacheKey(j.Name, j.Variant, &cfg)
}

// isCancellation reports whether err came from a cancelled or expired
// context rather than from the simulation itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// preloadKey indexes externally supplied results by (name, mode) only:
// preloaded Records carry no Config, so the caller vouches that they
// were produced under the configuration the session would use.
func preloadKey(name string, mode timing.Mode) string {
	return name + "\x00" + mode.String()
}

// Preload seeds the session with an externally obtained result for
// (name, mode), e.g. one loaded from a cmd/darco-suite -json Record.
// Subsequent jobs with that name and mode are served from it without
// simulating.
func (s *Session) Preload(name string, mode timing.Mode, res *Result) {
	s.mu.Lock()
	s.preload[preloadKey(name, mode)] = res
	s.mu.Unlock()
}

// Run executes one job through the session, deduplicating it against
// identical in-flight or completed jobs. The first caller for a cache
// key runs the job on a worker slot; concurrent callers with the same
// key block until it completes (or their own ctx is cancelled) and
// share the result. Context-cancellation errors are not memoized, so
// a cancelled job can be retried.
func (s *Session) Run(ctx context.Context, job Job) (*Result, error) {
	cfg := job.resolve()
	// Fail fast on invalid configs: no worker slot, no cache entry —
	// every submission of a bad job reports the same clear error.
	if err := cfg.Validate(); err != nil {
		err = fmt.Errorf("%s: %w", job.Name, err)
		s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventFailed, Err: err})
		return nil, err
	}
	key, err := cacheKey(job.Name, job.Variant, &cfg)
	if err != nil {
		s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventFailed, Err: err})
		return nil, err
	}

	var e *sessionEntry
	for {
		s.mu.Lock()
		if res, ok := s.preload[preloadKey(job.Name, cfg.Mode)]; ok && !job.NoPreload {
			s.mu.Unlock()
			s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventCached})
			return res, nil
		}
		prev, inFlight := s.cache[key]
		if !inFlight {
			e = &sessionEntry{done: make(chan struct{})}
			s.cache[key] = e
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		select {
		case <-prev.done:
			// A runner whose own context was cancelled publishes its
			// cancellation and forgets the key; a waiter with a live
			// context retries instead of inheriting that error.
			if isCancellation(prev.err) && ctx.Err() == nil {
				continue
			}
			s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventCached})
			return prev.res, prev.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// Memory-cache miss: consult the persistent store before taking a
	// worker slot. Store errors (including corrupt entries the store
	// itself tolerates) degrade to simulation.
	if s.store != nil {
		if rec, ok, serr := s.store.Get(key); serr == nil && ok && rec.Result != nil {
			s.finish(key, e, rec.Result, nil)
			s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventCached})
			return rec.Result, nil
		}
	}

	s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventQueued})
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finish(key, e, nil, ctx.Err())
		return nil, ctx.Err()
	}
	s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventStarted})

	var res *Result
	if s.remote != nil {
		res, err = s.runRemote(ctx, &job, cfg)
	} else {
		res, err = s.execute(ctx, job, cfg)
	}
	<-s.sem

	if err == nil && s.store != nil {
		// Best-effort persistence: a full Record (digest + result), so
		// the store serves the established interchange format directly.
		rec := NewRecord(job.Name, jobSuite(&job), job.Scale, cfg.Mode, res, nil)
		_ = s.store.Put(key, &rec)
	}

	s.finish(key, e, res, err)
	if err != nil {
		s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventFailed, Err: err})
		return nil, err
	}
	s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventDone, Cycles: res.Timing.Cycles})
	return res, nil
}

// jobSuite reports the suite label recorded for a job's persisted
// results.
func jobSuite(job *Job) string {
	if job.Program == nil {
		return ""
	}
	return job.Program.Meta().Suite
}

// runRemote ships one cache-missing job to the configured remote
// executor. Remote progress events re-enter the local event streams;
// the remote side emits its own queued/started/done lifecycle, so only
// in-run progress is forwarded to avoid duplicating lifecycle events
// the local session already emitted.
func (s *Session) runRemote(ctx context.Context, job *Job, cfg Config) (*Result, error) {
	if job.Ref == "" {
		return nil, fmt.Errorf("darco: job %q was not built from a workload reference; remote sessions can only run WithWorkload jobs", job.Name)
	}
	cfg.Progress = nil // not serializable; progress arrives as remote events
	cfg.ProgressEvery = 0
	return s.remote.RunRemote(ctx, job.Ref, job.Scale, cfg, func(ev Event) {
		if ev.Kind == EventProgress {
			s.notify(job, ev)
		}
	})
}

func (s *Session) execute(ctx context.Context, job Job, cfg Config) (*Result, error) {
	if job.Program == nil {
		return nil, fmt.Errorf("darco: job %q has no program", job.Name)
	}
	p, err := job.Program.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job.Name, err)
	}
	// Chain session progress events onto any caller-installed hook.
	prev := cfg.Progress
	cfg.Progress = func(pr Progress) {
		s.notify(&job, Event{Job: job.Name, Mode: cfg.Mode, Kind: EventProgress, Cycles: pr.Cycles})
		if prev != nil {
			prev(pr)
		}
	}
	// Sampled runs inherit the session's worker-pool width for their
	// interval measurements and warm-start their fast-forward pass from
	// the persistent store when it can hold raw blobs (internal/store
	// can). The job holds one session slot; the fan-out happens inside.
	env := sampleEnv{parallel: s.workers, program: workload.Fingerprint(job.Program)}
	if bc, ok := s.store.(sample.BlobCache); ok {
		env.cache = bc
	}
	res, err := cfg.runWith(ctx, p, env)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job.Name, err)
	}
	return res, nil
}

// finish publishes the outcome to waiters and forgets cancellations so
// they can be retried.
func (s *Session) finish(key string, e *sessionEntry, res *Result, err error) {
	e.res, e.err = res, err
	if isCancellation(err) {
		s.mu.Lock()
		delete(s.cache, key)
		s.mu.Unlock()
	}
	close(e.done)
}

// BatchResult pairs one batch job with its outcome.
type BatchResult struct {
	Job    Job
	Result *Result
	Err    error
}

// RunBatch executes the jobs concurrently (bounded by the worker pool)
// and returns their outcomes in input order. It never stops early: a
// failing job does not prevent the others from completing, which is
// what lets one bad spec report an error without killing a
// 48-benchmark sweep.
func (s *Session) RunBatch(ctx context.Context, jobs []Job) []BatchResult {
	out := make([]BatchResult, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			res, err := s.Run(ctx, job)
			out[i] = BatchResult{Job: job, Result: res, Err: err}
		}(i, job)
	}
	wg.Wait()
	return out
}
