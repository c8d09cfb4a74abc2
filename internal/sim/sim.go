// Package sim provides a deterministic discrete-event simulation kernel
// with picosecond time resolution.
//
// The kernel is a zero-allocation event scheduler. An event is a
// (Handler, int64 payload) pair — the component being simulated is its
// own handler and the payload selects the action — held in a value-typed
// slab whose slots a free-list recycles, so steady-state scheduling and
// dispatch perform no heap allocations and create no garbage. Events
// dispatch in (at, seq) order, where seq is the schedule-call order:
// simultaneous events run FIFO, which makes every experiment in this
// repository reproducible bit-for-bit.
//
// The queue exploits how the simulated hardware schedules. Request and
// acknowledge toggles of the asynchronous handshake components are fixed
// gate and wire delays, so nearly every event is scheduled a delay ahead
// that comes from a dozen constants. A delay that keeps recurring is
// promoted to a delay class with its own FIFO ring; since the clock never
// runs backwards, each ring is sorted by construction and a push is O(1).
// Everything else (rare delays, absolute times) goes into a general
// 4-ary heap. Dispatch takes the earlier
// of the heap's root and the root of a small heap over the ring heads.
// See queue.go.
//
// A scheduled event is never taken back: the model toggles every request
// and acknowledge wire exactly once per scheduled delay. A component that
// may lose interest in a future event (the fault layer's retransmission
// timer) checks its own state when the event fires.
//
// Asynchronous NoC models are built on top of this kernel by scheduling
// request/acknowledge toggle events between handshake components: each
// channel and node implements Handler once and schedules itself with
// At/In.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
)

// Never is a sentinel timestamp larger than any reachable simulation time.
const Never Time = 1<<63 - 1

// Nanoseconds returns t expressed in (fractional) nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// AddSat returns a+b saturated at Never: if either operand is Never, or
// the sum of two non-negative operands overflows, the result is Never.
// Deadline arithmetic (watchdog chunking, retransmission backoff) uses it
// so that "no deadline" composes safely with any finite offset.
func AddSat(a, b Time) Time {
	if a == Never || b == Never {
		return Never
	}
	c := a + b
	if b > 0 && c < a || a > 0 && c < b {
		return Never
	}
	return c
}

// String formats the time with an adaptive unit. Negative durations keep
// the adaptive unit of their magnitude (e.g. "-2.500ns", not "-2500ps").
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t == math.MinInt64:
		// -t overflows; format through float64 directly.
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < 0:
		return "-" + (-t).magnitude()
	default:
		return t.magnitude()
	}
}

// magnitude formats a non-negative time with an adaptive unit.
func (t Time) magnitude() string {
	switch {
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Handler dispatches scheduled events. A simulated component implements
// Handler once; the int64 payload passed back at dispatch selects the
// action (and encodes a small operand such as a port index), replacing
// the captured closure of the previous kernel so that scheduling does not
// allocate.
type Handler interface {
	OnEvent(arg int64)
}

// slot is one slab entry: the dispatch target of a pending event. Its
// position in time lives in the queue entry that points at it.
type slot struct {
	h   Handler
	arg int64
}

// Scheduler is a single-threaded discrete-event scheduler.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now Time
	// slots is the event slab and free lists recycled slots; q orders
	// the pending events. All of them grow to the high-water mark of
	// concurrently pending events and are then reused forever:
	// steady-state scheduling allocates nothing.
	slots []slot
	free  []int32
	q     queue

	nextSeq uint64
	// executed counts events dispatched since construction.
	executed uint64
	// stopped is set by Stop and cleared by the run loops on entry.
	stopped bool
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int {
	n := len(s.q.heap)
	for i := range s.q.rings {
		n += s.q.rings[i].n
	}
	return n
}

// Executed returns the total number of events dispatched so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// At enqueues h to be dispatched with arg at absolute time at. Scheduling
// in the past (before Now) panics: in a handshake model a causality
// violation is always a modeling bug and must not be silently reordered.
// This is the zero-allocation hot path.
func (s *Scheduler) At(at Time, h Handler, arg int64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if h == nil {
		panic("sim: schedule with nil handler")
	}
	idx := s.alloc(h, arg)
	k := key{at: at, seq: s.nextSeq}
	s.nextSeq++
	// Find d's class and append to its ring. This is the per-toggle
	// path, so the common cases are written out here: d at its home slot
	// of the class index, and a ring joining an empty head heap.
	q := &s.q
	d := at - s.now
	c, hit := heapClass, false
	if t := q.classes; t != nil {
		x := &t.index[hashDelay(d, indexBits)]
		c, hit = x.cls1-1, x.d == d && x.cls1 != 0
	}
	if !hit {
		c = q.lookup(d)
	}
	if c == heapClass {
		q.pushHeap(entry{key: k, slot: idx})
		return
	}
	r := &q.rings[c]
	if r.n == len(r.buf) {
		r.grow()
	}
	e := &r.buf[(r.first+r.n)&(len(r.buf)-1)]
	e.key, e.slot = k, idx
	if r.n++; r.n == 1 {
		if len(q.heads) == 0 {
			q.heads = append(q.heads, head{key: k, cls: c})
		} else {
			q.addHead(c, k)
		}
	}
}

// In enqueues h to be dispatched with arg after delay picoseconds,
// saturating at Never on overflow (an event at Never is beyond every
// finite RunUntil deadline). The zero-allocation hot path.
func (s *Scheduler) In(delay Time, h Handler, arg int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	s.At(AddSat(s.now, delay), h, arg)
}

// alloc takes a slab slot for a new pending event.
func (s *Scheduler) alloc(h Handler, arg int64) int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[idx] = slot{h: h, arg: arg}
		return idx
	}
	s.slots = append(s.slots, slot{h: h, arg: arg})
	return int32(len(s.slots) - 1)
}

// release returns a slot to the free list.
func (s *Scheduler) release(idx int32) {
	s.slots[idx].h = nil // drop the handler reference; slots outlive events
	s.free = append(s.free, idx)
}

// Stop makes the currently running Run/RunUntil loop return after the
// in-flight event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step dispatches the earliest pending event if its time is at most
// deadline, advancing the clock. It reports whether an event was
// dispatched.
func (s *Scheduler) step(deadline Time) bool {
	e, ok := s.q.pop(deadline)
	if !ok {
		return false
	}
	s.now = e.at
	sl := &s.slots[e.slot]
	h, arg := sl.h, sl.arg
	// Release before dispatch: a self-rescheduling handler chain then
	// recycles one slot forever instead of walking the slab.
	s.release(e.slot)
	s.executed++
	h.OnEvent(arg)
	return true
}

// Run dispatches events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step(Never) {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline (if the simulation got that far). Events scheduled
// beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.step(deadline) {
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}
