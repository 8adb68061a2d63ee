package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/darco"
)

// job is the server-side state of one submitted run: the resolved
// session job plus an append-only event log fanned out to any number
// of SSE subscribers.
type job struct {
	id     string
	tenant string
	key    string
	sjob   darco.Job // read-only once submitted

	// ctx governs this job's simulation only; cancel fires on POST
	// /jobs/{id}/cancel and on server drain (the parent is the server's
	// run context).
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	cancelled bool // cancel requested before the job settled
	fromCache bool
	startSeq  int
	events    []WireEvent
	changed   chan struct{} // closed and replaced on every append/state change
	cycles    uint64
	raw       json.RawMessage // marshaled darco.Record, set when terminal
	err       error
	doneAt    time.Time // when the job reached a terminal state

	done chan struct{} // closed when the job reaches a terminal state
}

func newJob(parent context.Context, id, tenant string, sjob darco.Job, key string) *job {
	ctx, cancel := context.WithCancel(parent)
	return &job{
		id:      id,
		tenant:  tenant,
		key:     key,
		sjob:    sjob,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// requestCancel cancels the job's run context and marks the job for
// the cancelled terminal state. It reports false — and does nothing —
// once the job has settled.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	j.mu.Unlock()
	j.cancel()
	return true
}

// isFromCache reports whether the session served the job without
// simulating.
func (j *job) isFromCache() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fromCache
}

func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// note records one darco session event in the wire log. It is the
// Job.Events hook of the session job, so it runs serially.
func (j *job) note(ev darco.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	wev := WireEvent{
		Seq:    len(j.events) + 1,
		Job:    ev.Job,
		Mode:   ev.Mode.String(),
		Kind:   ev.Kind.String(),
		Cycles: ev.Cycles,
	}
	if ev.Err != nil {
		wev.Error = ev.Err.Error()
	}
	if ev.Cycles != 0 {
		j.cycles = ev.Cycles
	}
	if ev.Kind == darco.EventCached {
		j.fromCache = true
	}
	j.events = append(j.events, wev)
	j.broadcastLocked()
}

// setRunning marks dispatch onto the worker pool with the global start
// order.
func (j *job) setRunning(seq int) {
	j.mu.Lock()
	j.state = StateRunning
	j.startSeq = seq
	j.broadcastLocked()
	j.mu.Unlock()
}

// finish publishes the terminal record (which carries any error in its
// Error field) and wakes waiters and subscribers. An error after a
// cancel request settles the job as cancelled rather than failed; a
// result that won the race against its own cancellation is still done.
func (j *job) finish(raw json.RawMessage, err error) {
	j.cancel() // release the per-job context either way
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
	case j.cancelled:
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.raw = raw
	j.doneAt = time.Now()
	j.broadcastLocked()
	j.mu.Unlock()
	close(j.done)
}

// terminalAt reports whether the job has finished and, if so, when —
// the TTL-eviction probe.
func (j *job) terminalAt() (bool, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state), j.doneAt
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Tenant:    j.tenant,
		Workload:  j.sjob.Ref,
		Scale:     j.sjob.Scale,
		Mode:      j.sjob.Config.Mode.String(),
		State:     j.state,
		FromCache: j.fromCache,
		StartSeq:  j.startSeq,
		Key:       j.key,
		Events:    len(j.events),
		Cycles:    j.cycles,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// snapshot returns the events from cursor on, the channel signalling
// the next change, and whether the job is terminal — the SSE pull
// loop.
func (j *job) snapshot(cursor int) (evs []WireEvent, changed chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < len(j.events) {
		evs = append(evs, j.events[cursor:]...)
	}
	return evs, j.changed, terminalState(j.state)
}

// record returns the terminal record bytes (nil while the job is
// pending).
func (j *job) record() (json.RawMessage, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.raw, j.state
}
