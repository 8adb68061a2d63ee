package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/timing"
	"repro/internal/tol"
)

// Span names. The later in-program darco.HostProfile must reuse these.
const (
	spanWorkloadBuild     = "workload.build"
	spanTOLNewEngine      = "tol.new_engine"
	spanTOLStream         = "tol.stream"
	spanTimingSim         = "timing.sim"
	spanDarcoSession      = "darco.session"
	spanDarcoRecord       = "darco.record"
	spanSnapshotCapture   = "snapshot.capture"
	spanSnapshotEncode    = "snapshot.encode"
	spanSnapshotDecode    = "snapshot.decode"
	spanSnapshotRestore   = "snapshot.restore"
	spanSampleFastForward = "sample.fastforward"
	spanSampleMeasure     = "sample.measure"
	spanStorePut          = "store.put"
	spanStoreGet          = "store.get"
	spanServeSubmit       = "serve.submit"
	spanServeEvents       = "serve.events"
	spanServeResult       = "serve.result"
	spanSweepRun          = "sweep.run"
	spanSweepTable        = "sweep.table"
)

// span is one timed call into a layer, made from the benchmark's own
// files. Start and End are nanoseconds since the recorder was created;
// Parent is the ID of the span that caused it (0 = none); spans of one
// job share Job. A span with Calls > 1 is a compaction of that many
// back-to-back calls (tol.stream: one Engine.NextBatch per 1024-inst
// batch): Start is the first call's start and End-Start their summed
// busy time, so it still covers exactly the time its layer was busy
// inside the parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op, so the timed (untraced) passes
// run the same code without the clock reads.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (r *recorder) begin(name, job string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// compact records many back-to-back calls as one span (see span).
func (r *recorder) compact(name, job string, parent int, first time.Time, busy time.Duration, calls int) {
	if r == nil || calls == 0 {
		return
	}
	start := first.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start, End: start + busy.Nanoseconds(), Calls: calls})
}

// mark returns the number of spans recorded so far; since(mark) is the
// slice recorded after it (one traced pass).
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(mark int) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// total sums the durations of the spans with the given name, and
// counts them (a compacted span counts its calls).
func total(spans []span, name string) (d time.Duration, n int) {
	for i := range spans {
		if spans[i].Name == name {
			d += spans[i].dur()
			if spans[i].Calls > 0 {
				n += spans[i].Calls
			} else {
				n++
			}
		}
	}
	return d, n
}

// selfTime returns, per span name, the summed self time: each span's
// duration minus the part of its interval its direct children cover
// (overlapping children are counted once, and a child is clipped to
// its parent).
func selfTime(spans []span) map[string]time.Duration {
	children := map[int][]*span{}
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// tracedSource stands between the timing simulator and the engine: it
// times every NextBatch call (one clock pair per stream batch), so the
// engine's busy time inside a timing.sim span is known from outside
// and the simulator's self time is the remainder.
type tracedSource struct {
	eng   *tol.Engine
	first time.Time
	busy  time.Duration
	calls int
}

// Next implements timing.StreamSource; the simulator uses NextBatch.
func (s *tracedSource) Next(d *timing.DynInst) bool {
	var one [1]timing.DynInst
	if s.NextBatch(one[:]) == 0 {
		return false
	}
	*d = one[0]
	return true
}

// NextBatch implements timing.BatchSource.
func (s *tracedSource) NextBatch(buf []timing.DynInst) int {
	t := time.Now()
	n := s.eng.NextBatch(buf)
	s.busy += time.Since(t)
	if s.calls == 0 {
		s.first = t
	}
	s.calls++
	return n
}
