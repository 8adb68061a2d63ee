package timing

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// choppySource delivers a stream in short, uneven batches, as an engine
// does (one interpreter step's worth, or one translated burst), and
// logs every call. count is the probe a consumer reads.
type choppySource struct {
	insts   []DynInst
	pos     int
	calls   int
	log     []int // len(buf) of each call, then its result
	panicAt int   // call number that panics (0 = never)
	onCall  func(call int)
}

func (s *choppySource) NextBatch(buf []DynInst) int {
	s.calls++
	if s.onCall != nil {
		s.onCall(s.calls)
	}
	if s.calls == s.panicAt {
		panic("boom")
	}
	n := 1 + (s.calls*7919)%2500
	n = copy(buf[:min(n, len(buf))], s.insts[s.pos:])
	s.pos += n
	s.log = append(s.log, len(buf), n)
	return n
}

func (s *choppySource) count() uint64 { return uint64(s.pos) }

// untilEnd cuts a call log after the first call that returned 0. A
// simulator holding a source directly calls it again after the stream
// end, a RunAhead does not; for an engine the extra calls are no-ops.
func untilEnd(log []int) []int {
	for i := 1; i < len(log); i += 2 {
		if log[i] == 0 {
			return log[:i+1]
		}
	}
	return log
}

// withProcs runs the test body at GOMAXPROCS n: 1 leaves no core free,
// so a RunAhead is synchronous; 4 leaves one, so it runs ahead.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// settle waits for the goroutine count to return to base.
func settle(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type pausedRun struct {
	res, mark   Result
	pausedAt    uint64
	calls       []int
	probeAtMark uint64
}

// runPaused simulates src to the end, pausing once the probe reaches
// stop to take a mark, the way a sampled interval measurement does.
func runPaused(t *testing.T, src *choppySource, ahead func(*Simulator) *RunAhead, stop uint64) pausedRun {
	t.Helper()
	sim := NewSimulator(DefaultConfig(), ModeShared)
	var in BatchSource = src
	probe := src.count
	var ra *RunAhead
	if ahead != nil {
		ra = ahead(sim)
		defer ra.Close()
		in, probe = ra, ra.Probe
	}
	sim.StopWhen = func() bool { return probe() >= stop }
	var out pausedRun
	_, err := sim.RunContext(context.Background(), in)
	if err != ErrPaused {
		t.Fatalf("first leg: %v, want ErrPaused", err)
	}
	out.mark, out.probeAtMark = sim.ResultSoFar(), probe()
	out.pausedAt = out.mark.Cycles
	sim.StopWhen = nil
	res, err := sim.RunContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if ra != nil {
		if err := ra.Close(); err != nil {
			t.Fatal(err)
		}
	}
	out.res, out.calls = *res, src.log
	return out
}

// TestRunAheadMatchesSynchronous: whether the producer runs ahead or
// not, the source sees the same calls (each into a window exactly the
// simulator's batch long), a StopWhen that reads Probe pauses at the
// same cycle as one reading the source directly, and the results are
// identical.
func TestRunAheadMatchesSynchronous(t *testing.T) {
	insts := batchStream(200_000)
	const stop = 61_000
	ref := runPaused(t, &choppySource{insts: insts}, nil, stop)
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		base := runtime.NumGoroutine()
		src := &choppySource{insts: insts}
		got := runPaused(t, src, func(sim *Simulator) *RunAhead {
			ra := NewRunAhead(sim, src, src.count)
			if ahead := ra.p != nil; ahead != (procs > 1) {
				t.Fatalf("GOMAXPROCS %d: running ahead = %v", procs, ahead)
			}
			return ra
		}, stop)
		if !reflect.DeepEqual(got.calls, untilEnd(ref.calls)) {
			t.Errorf("GOMAXPROCS %d: the source saw different calls", procs)
		}
		if got.pausedAt != ref.pausedAt || got.probeAtMark != ref.probeAtMark || !reflect.DeepEqual(got.mark, ref.mark) {
			t.Errorf("GOMAXPROCS %d: paused at cycle %d (probe %d), want %d (probe %d)",
				procs, got.pausedAt, got.probeAtMark, ref.pausedAt, ref.probeAtMark)
		}
		if !reflect.DeepEqual(got.res, ref.res) {
			t.Errorf("GOMAXPROCS %d: result differs from the synchronous run", procs)
		}
		settle(t, base)
		if n := simulating.Load(); n != 0 {
			t.Fatalf("core budget holds %d after Close, want 0", n)
		}
	}
}

// TestRunAheadProbeStartsAtConstruction: a StopWhen that is already
// true before the first batch pauses at cycle 0 in both modes, because
// the probe is read once at construction.
func TestRunAheadProbeStartsAtConstruction(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		src := &choppySource{insts: batchStream(10_000)}
		src.pos = 500 // the source state a restored checkpoint starts from
		sim := NewSimulator(DefaultConfig(), ModeShared)
		ra := NewRunAhead(sim, src, src.count)
		sim.StopWhen = func() bool { return ra.Probe() >= 400 }
		if _, err := sim.Run(ra); err != ErrPaused || sim.cycle != 0 {
			t.Errorf("GOMAXPROCS %d: %v at cycle %d, want ErrPaused at cycle 0", procs, err, sim.cycle)
		}
		if err := ra.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunAheadSourcePanicEndsStream: a source that panics mid-stream
// ends the stream instead of the process, in both modes, and Close
// reports the panic; the producer goroutine is gone afterwards.
func TestRunAheadSourcePanicEndsStream(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		base := runtime.NumGoroutine()
		src := &choppySource{insts: batchStream(100_000), panicAt: 30}
		sim := NewSimulator(DefaultConfig(), ModeShared)
		ra := NewRunAhead(sim, src, src.count)
		if _, err := sim.Run(ra); err != nil {
			t.Fatalf("GOMAXPROCS %d: run: %v", procs, err)
		}
		if err := ra.Close(); err == nil || err.Error() != "panic: boom" {
			t.Fatalf("GOMAXPROCS %d: Close = %v, want panic: boom", procs, err)
		}
		if src.calls != 30 {
			t.Errorf("GOMAXPROCS %d: %d source calls, want none after the panicking one", procs, src.calls)
		}
		settle(t, base)
	}
}

// TestRunAheadLifecycle: a run cancelled mid-stream, a run stopped by
// MaxCycles while the producer is ahead, and a consumer that closes
// before the stream ends each return what the synchronous run returns,
// and leave no goroutine behind.
func TestRunAheadLifecycle(t *testing.T) {
	insts := batchStream(300_000)
	cases := []struct {
		name string
		run  func(t *testing.T) string // the run's error
	}{
		{"cancelled", func(t *testing.T) string {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &choppySource{insts: insts, onCall: func(call int) {
				if call == 40 {
					cancel()
				}
			}}
			sim := NewSimulator(DefaultConfig(), ModeShared)
			ra := NewRunAhead(sim, src, nil)
			_, err := sim.RunContext(ctx, ra)
			if cerr := ra.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			return errString(err)
		}},
		{"max-cycles", func(t *testing.T) string {
			src := &choppySource{insts: insts}
			sim := NewSimulator(DefaultConfig(), ModeShared)
			sim.MaxCycles = 20_000
			ra := NewRunAhead(sim, src, nil)
			_, err := sim.Run(ra)
			if cerr := ra.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			return errString(err)
		}},
		{"early-close", func(t *testing.T) string {
			src := &choppySource{insts: insts}
			sim := NewSimulator(DefaultConfig(), ModeShared)
			ra := NewRunAhead(sim, src, nil)
			buf := make([]DynInst, defaultStreamBatch)
			for i := 0; i < 3; i++ {
				ra.NextBatch(buf)
			}
			ahead := ra.p != nil
			for i := 0; ahead && len(ra.p.free) > 0; i++ { // the producer fills the ring
				if i == 2000 {
					t.Fatal("the producer never filled the ring")
				}
				time.Sleep(time.Millisecond)
			}
			err := ra.Close()
			if n := ra.NextBatch(buf); n != 0 {
				t.Errorf("NextBatch after Close delivered %d", n)
			}
			if !ahead && src.calls != 3 {
				t.Errorf("synchronous source called %d times, want 3", src.calls)
			}
			return errString(err)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, procs := range []int{1, 4} {
				withProcs(t, procs)
				base := runtime.NumGoroutine()
				got := tc.run(t)
				settle(t, base)
				if n := simulating.Load(); n != 0 {
					t.Fatalf("GOMAXPROCS %d: core budget holds %d after Close", procs, n)
				}
				if procs == 1 {
					want = got
				} else if got != want {
					t.Errorf("running ahead: %q, synchronous: %q", got, want)
				}
			}
			if tc.name != "early-close" && want == "" {
				t.Error("the run did not fail")
			}
		})
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return err.Error()
}

// TestRunAheadCoreBudget: a producer starts only while it keeps the
// count of simulating goroutines within GOMAXPROCS; a run that finds
// no free core is synchronous, and Close gives the cores back.
func TestRunAheadCoreBudget(t *testing.T) {
	withProcs(t, 3)
	sim := NewSimulator(DefaultConfig(), ModeShared)
	src := func() BatchSource { return &SliceSource{Insts: batchStream(100)} }
	a := NewRunAhead(sim, src(), nil) // 2 of 3 cores
	b := NewRunAhead(sim, src(), nil) // would need 4: synchronous, 3 of 3
	if a.p == nil || b.p != nil {
		t.Fatalf("ahead: first %v, second %v; want true, false", a.p != nil, b.p != nil)
	}
	if n := simulating.Load(); n != 3 {
		t.Fatalf("core budget %d, want 3", n)
	}
	for _, r := range []*RunAhead{a, b, b} { // Close is idempotent
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := simulating.Load(); n != 0 {
		t.Fatalf("core budget %d after Close, want 0", n)
	}
}
