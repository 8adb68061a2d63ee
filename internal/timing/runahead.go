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

// pipe is a RunAhead's producer state: a single-producer,
// single-consumer ring of slots. tail counts slots the producer has
// published and head slots the consumer has released. A slot holds the
// results of consecutive source calls, each made into a window exactly
// the simulator's batch long, so a hand-off carries thousands of
// instructions even when the source returns short batches (an engine
// in its interpreter returns one step's worth per call). The producer
// waits by yielding briefly and then parking, and is woken once the
// ring is half empty; the consumer is woken as soon as a slot is
// published.
type pipe struct {
	slots []ringSlot
	mask  uint64
	batch int

	head, tail atomic.Uint64
	stop       atomic.Bool // the consumer closed the stream

	prodParked, consParked atomic.Bool
	prodWake, consWake     chan struct{}
	exited                 chan struct{}
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
	// spinWaits is how many times a waiting side yields before it
	// parks.
	spinWaits = 64
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
			p.head.Store(0)
			p.tail.Store(0)
			p.stop.Store(false)
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
		slots:    make([]ringSlot, n),
		mask:     uint64(n - 1),
		batch:    batch,
		prodWake: make(chan struct{}, 1),
		consWake: make(chan struct{}, 1),
		exited:   make(chan struct{}, 1),
	}
	for i := range p.slots {
		p.slots[i].buf = make([]DynInst, room)
	}
	return p
}

func putPipe(p *pipe) {
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
		h := p.head.Load()
		p.waitData(h)
		r.cur, r.next, r.from = &p.slots[h&p.mask], 0, 0
	}
	c := r.cur.calls[r.next]
	n := copy(buf, r.cur.buf[r.from:c.end])
	r.last, r.done = c.probe, n == 0
	r.next, r.from = r.next+1, c.end
	if r.next == len(r.cur.calls) {
		r.cur = nil
		h := p.head.Add(1)
		if p.prodParked.Load() && p.tail.Load()-h <= p.mask/2 && p.prodParked.CompareAndSwap(true, false) {
			p.prodWake <- struct{}{}
		}
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
		p.stop.Store(true)
		if p.prodParked.CompareAndSwap(true, false) {
			p.prodWake <- struct{}{}
		}
		<-p.exited
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
	for seq := uint64(0); ; seq++ {
		if !p.waitSpace(seq) {
			return
		}
		s := &p.slots[seq&p.mask]
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
			if n == 0 || len(s.buf)-off < p.batch || p.stop.Load() {
				break
			}
		}
		p.tail.Store(seq + 1)
		if p.consParked.Load() && p.consParked.CompareAndSwap(true, false) {
			p.consWake <- struct{}{}
		}
		if n == 0 {
			return
		}
	}
}

// waitSpace waits until slot seq is free, and reports false if the
// consumer closed the stream instead.
func (p *pipe) waitSpace(seq uint64) bool {
	for i := 0; seq-p.head.Load() > p.mask; i++ {
		if p.stop.Load() {
			return false
		}
		if i < spinWaits {
			runtime.Gosched()
			continue
		}
		// Park. The consumer wakes a parked producer once the ring is
		// half empty; re-check after announcing, so a release between
		// the test and the announcement is not missed.
		p.prodParked.Store(true)
		if seq-p.head.Load() <= p.mask || p.stop.Load() {
			if !p.prodParked.CompareAndSwap(true, false) {
				<-p.prodWake // the consumer claimed the wake: take it
			}
			continue
		}
		<-p.prodWake
	}
	return !p.stop.Load()
}

// waitData waits until slot h has been published.
func (p *pipe) waitData(h uint64) {
	for i := 0; p.tail.Load() == h; i++ {
		if i < spinWaits {
			runtime.Gosched()
			continue
		}
		// Park; the producer wakes a parked consumer with the next
		// slot it publishes.
		p.consParked.Store(true)
		if p.tail.Load() != h {
			if !p.consParked.CompareAndSwap(true, false) {
				<-p.consWake
			}
			continue
		}
		<-p.consWake
	}
}
