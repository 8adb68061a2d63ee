package timing

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// simulating is the process-wide core budget: how many goroutines are
// running a detailed simulation (one per live RunAhead) or a RunAhead
// producer. A RunAhead starts a producer only when that keeps the count
// at or below GOMAXPROCS, so a run's second goroutine only takes a core
// that no other run was using when it started.
var simulating atomic.Int32

// claimCores adds n to the budget if the total stays within
// GOMAXPROCS, and reports whether it did.
func claimCores(n int32) bool {
	limit := int32(runtime.GOMAXPROCS(0))
	for {
		c := simulating.Load()
		if c+n > limit {
			return false
		}
		if simulating.CompareAndSwap(c, c+n) {
			return true
		}
	}
}

// CatchPanic, deferred, turns a panic of the deferring function into
// the error "panic: <value>" stored in *err. It keeps a panic on a
// goroutine the caller does not own — a RunAhead producer, a sampled
// interval measurement — from ending the process.
func CatchPanic(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
}

// RunAhead is a BatchSource that delivers another source's stream to
// one Simulator. When a core is free (see simulating) it calls the
// source on a goroutine of its own, up to a ring of batches ahead of
// the simulator, so stream generation and cycle simulation run on two
// cores; otherwise it calls the source synchronously from the
// simulator's NextBatch, as if the simulator held the source directly.
// Either way the source sees the same calls — each asks for exactly the
// simulator's Config.StreamBatch instructions — and the simulator the
// same stream, so results do not depend on which mode a run got.
//
// While a producer is live only it may touch the source. What the
// consumer needs of the source's state mid-run (a Simulator.StopWhen
// predicate, say) it reads through Probe; everything else (final
// statistics, errors) only after Close has joined the producer.
type RunAhead struct {
	src   BatchSource
	probe func() uint64

	// Consumer side: last is the probe as of the last batch delivered,
	// done is set once the stream end has been delivered, err holds a
	// recovered source panic (read only after the producer is joined).
	last   uint64
	done   bool
	closed bool
	err    error

	p *pipe // nil when synchronous
	// cur is the slot being delivered (nil between slots), next the
	// index of its next call and from where that call's instructions
	// start.
	cur        *ringSlot
	next, from int
}

// pipe is a RunAhead's producer state: a ring of slots handed over on
// two channels, full from producer to consumer and free back. A slot
// holds the results of consecutive source calls, each made into a
// window exactly the simulator's batch long, so a hand-off carries
// thousands of instructions even when the source returns short batches
// (an engine in its interpreter returns one step's worth per call), and
// the two goroutines do not wake each other batch by batch. Both
// channels have room for every slot, so a send never blocks; Close
// closes stop.
type pipe struct {
	batch      int
	full, free chan *ringSlot
	stop       chan struct{}
	exited     chan struct{}
}

// ringSlot is the output of consecutive source calls: their
// instructions back to back in buf, and per call where its
// instructions end and the probe after it. A call that returned 0 ends
// the slot and the stream.
type ringSlot struct {
	buf   []DynInst
	calls []ringCall
}

type ringCall struct {
	end   int
	probe uint64
}

// A slot has room for slotInsts instructions and at least two batches;
// a ring has as many slots as fit in ringInsts, from two to maxSlots.
const (
	slotInsts = 4 << 10
	ringInsts = 32 << 10
	maxSlots  = 8
)

// pipes is the free list of idle pipes. At most GOMAXPROCS/2 pipes can
// be live at once, so a short list serves every run after the first
// few without allocating a ring.
var pipes struct {
	sync.Mutex
	free []*pipe
}

const maxFreePipes = 4

func getPipe(batch int) *pipe {
	pipes.Lock()
	for i, p := range pipes.free {
		if p.batch == batch {
			last := len(pipes.free) - 1
			pipes.free[i] = pipes.free[last]
			pipes.free = pipes.free[:last]
			pipes.Unlock()
			p.stop = make(chan struct{})
			return p
		}
	}
	pipes.Unlock()
	room := max(slotInsts, 2*batch)
	n := 2
	for n < maxSlots && 2*n*room <= ringInsts {
		n <<= 1
	}
	p := &pipe{
		batch:  batch,
		full:   make(chan *ringSlot, n),
		free:   make(chan *ringSlot, n),
		stop:   make(chan struct{}),
		exited: make(chan struct{}, 1),
	}
	for range n {
		p.free <- &ringSlot{buf: make([]DynInst, room)}
	}
	return p
}

// putPipe returns every slot of a joined pipe to its free channel and
// the pipe to the free list.
func putPipe(p *pipe) {
	for len(p.full) > 0 {
		p.free <- <-p.full
	}
	pipes.Lock()
	if len(pipes.free) < maxFreePipes {
		pipes.free = append(pipes.free, p)
	}
	pipes.Unlock()
}

// NewRunAhead wraps src for sim. probe, which may be nil, reads the
// source state the consumer needs mid-run; it is called once here and
// then after every call into src, on whichever goroutine made it. The
// caller must Close the RunAhead when the run is over, also after a
// failed or paused-and-abandoned simulation.
func NewRunAhead(sim *Simulator, src BatchSource, probe func() uint64) *RunAhead {
	r := &RunAhead{src: src, probe: probe}
	r.last = r.probeNow()
	if !claimCores(2) {
		simulating.Add(1)
		return r
	}
	r.p = getPipe(len(sim.batch))
	go r.produce(r.p, r.last)
	return r
}

func (r *RunAhead) probeNow() uint64 {
	if r.probe == nil {
		return 0
	}
	return r.probe()
}

// Probe returns the probe's value as of the last batch NextBatch
// delivered (before the first, as of NewRunAhead): the source state a
// synchronous simulator would see at the same point of its run.
func (r *RunAhead) Probe() uint64 { return r.last }

// call makes one source call, turning a panic into an error.
func (r *RunAhead) call(buf []DynInst) (n int, probe uint64, err error) {
	defer CatchPanic(&err)
	n = r.src.NextBatch(buf)
	return n, r.probeNow(), nil
}

// NextBatch implements BatchSource for the simulator NewRunAhead was
// given: buf must be its batch buffer. A source panic ends the stream;
// Close reports it.
func (r *RunAhead) NextBatch(buf []DynInst) int {
	if r.done || r.closed {
		return 0
	}
	if r.p == nil {
		n, probe, err := r.call(buf)
		if err != nil {
			r.err, r.done = err, true
			return 0
		}
		r.last = probe
		r.done = n == 0
		return n
	}
	p := r.p
	if r.cur == nil {
		r.cur, r.next, r.from = <-p.full, 0, 0
	}
	c := r.cur.calls[r.next]
	n := copy(buf, r.cur.buf[r.from:c.end])
	r.last, r.done = c.probe, n == 0
	r.next, r.from = r.next+1, c.end
	if r.next == len(r.cur.calls) {
		p.free <- r.cur
		r.cur = nil
	}
	return n
}

// Close ends the stream, joins the producer and releases the run's
// cores. It returns the source's panic, if one ended the stream. After
// Close the source is the caller's again; Close is idempotent.
func (r *RunAhead) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if p := r.p; p != nil {
		close(p.stop)
		<-p.exited
		if r.cur != nil {
			p.free <- r.cur
		}
		r.p, r.cur = nil, nil
		putPipe(p)
		simulating.Add(-2)
	} else {
		simulating.Add(-1)
	}
	return r.err
}

// produce fills the ring until the stream ends or the consumer closes
// it. A panicking call ends the stream.
func (r *RunAhead) produce(p *pipe, probe uint64) {
	defer func() { p.exited <- struct{}{} }()
	for {
		var s *ringSlot
		select {
		case s = <-p.free:
		case <-p.stop:
			return
		}
		s.calls = s.calls[:0]
		off, n := 0, 0
		for {
			got, pr, err := r.call(s.buf[off : off+p.batch])
			if n = got; err != nil {
				r.err = err // n is 0: the stream ends here
			} else {
				probe = pr
			}
			off += n
			s.calls = append(s.calls, ringCall{end: off, probe: probe})
			if n == 0 || len(s.buf)-off < p.batch || p.stopped() {
				break
			}
		}
		p.full <- s
		if n == 0 {
			return
		}
	}
}

// stopped reports whether the consumer has closed the stream.
func (p *pipe) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}
