package serve

import (
	"repro/internal/darco"
)

// Wire types of the darco-serve HTTP API. Everything is plain JSON;
// results themselves travel as the established darco.Record
// interchange form, so a served result is consumable by every tool
// that reads cmd/darco-suite -json output.

// SubmitRequest is the body of POST /jobs: a workload Source-registry
// reference plus the run configuration. Config, when present, replaces
// the server's base configuration; the embedded darco.Knobs — the
// schema the cmd flags and grid values share, with the same keys and
// meaning — are then applied on top, so a client can send either a
// full resolved Config or just the knobs it cares about.
type SubmitRequest struct {
	// Workload is the Source-registry reference ("<source>:<name>"; a
	// bare name means synthetic). It is resolved on the server, through
	// workload.RefForISA when the resolved configuration pins an ISA.
	Workload string `json:"workload"`
	// Scale is the dynamic-size multiplier (0 means 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Tenant names the fair-queuing class of the job. The
	// X-Darco-Tenant request header overrides it; empty means
	// "default".
	Tenant string `json:"tenant,omitempty"`

	// Config replaces the server's base configuration wholesale
	// (darco.Config JSON).
	Config *darco.Config `json:"config,omitempty"`

	darco.Knobs
}

// SubmitResponse is the body of a 202 from POST /jobs.
type SubmitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Key is the memo key (darco.Job.Key) the job's result is — or
	// will be — filed under; Addr is its content address in the
	// persistent store.
	Key  string `json:"key"`
	Addr string `json:"addr"`
}

// JobState is a job's lifecycle state as JobStatus.State and
// SubmitResponse.State report it; on the wire it is the plain string.
type JobState string

// Job lifecycle states. StateCancelled is terminal like
// StateDone/StateFailed, entered when POST /jobs/{id}/cancel stops a
// queued or running job.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminalState reports whether a job in this state has settled: its
// record is final and it can be deleted but no longer cancelled.
func terminalState(state JobState) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the body of GET /jobs/{id} and the element of GET
// /jobs listings.
type JobStatus struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	Workload string   `json:"workload"`
	Scale    float64  `json:"scale,omitempty"`
	Mode     string   `json:"mode"`
	State    JobState `json:"state"`
	// FromCache marks a job served without simulating: a session
	// memory-cache hit or a persistent-store hit (EventCached).
	FromCache bool `json:"from_cache,omitempty"`
	// StartSeq is the global dispatch order of the job on the worker
	// pool (1 = first job ever started); 0 while queued. It makes the
	// fair-queuing order observable.
	StartSeq int    `json:"start_seq,omitempty"`
	Key      string `json:"key"`
	Events   int    `json:"events"`
	// Cycles is the most recent progress (or final) cycle count.
	Cycles uint64 `json:"cycles,omitempty"`
	Error  string `json:"error,omitempty"`
}

// WireEvent is one per-job progress event as streamed by GET
// /jobs/{id}/events (SSE data lines). Kind is the
// darco.EventKind.String() name; darco.ParseEventKind inverts it.
type WireEvent struct {
	Seq    int    `json:"seq"`
	Job    string `json:"job"`
	Mode   string `json:"mode"`
	Kind   string `json:"kind"`
	Cycles uint64 `json:"cycles,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Terminal reports whether this event ends the job's stream.
func (ev WireEvent) Terminal() bool {
	return ev.Kind == darco.EventDone.String() ||
		ev.Kind == darco.EventFailed.String() ||
		ev.Kind == darco.EventCached.String()
}

// Health is the body of GET /healthz.
type Health struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Store   bool   `json:"store"`
	Jobs    int    `json:"jobs"`
}

// workloads is the body of GET /workloads: the registered source
// schemes and the enumerable programs of each listable source.
type workloads struct {
	Sources []string            `json:"sources"`
	Listed  map[string][]string `json:"listed,omitempty"`
}

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}
