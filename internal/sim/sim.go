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
// Cancel leaves a stale entry that dispatch skips; a ring or the heap is
// compacted once its stale entries outnumber its live ones. See queue.go.
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

// IsNever reports whether t is the unreachable-future sentinel.
func (t Time) IsNever() bool { return t == Never }

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

// EventID is a cancellation handle for a pending event: a slab index plus
// a generation counter. The zero EventID never matches a live event, and
// an ID goes stale the instant its event fires or is canceled (slot
// generations advance on every release), so Cancel on a dead handle is a
// safe no-op.
type EventID struct {
	slot int32
	gen  uint32
}

// slot is one slab entry: the dispatch target of a pending event. Its
// position in time lives in the queue entry that points at it.
type slot struct {
	h   Handler
	arg int64
	// gen advances on every release so stale EventIDs cannot cancel a
	// recycled slot and stale queue entries are recognised at dispatch.
	// It is never zero (the zero EventID is invalid).
	gen uint32
	// cls is the delay class whose ring holds the event, or heapClass.
	cls int32
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

// Len returns the number of pending events: the queue's entries less
// the stale ones canceled events left behind.
func (s *Scheduler) Len() int {
	n := len(s.q.heap) - s.q.stale
	for i := range s.q.rings {
		n += s.q.rings[i].n
	}
	return n
}

// Executed returns the total number of events dispatched so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending reports whether id still refers to a queued event in s.
func (s *Scheduler) Pending(id EventID) bool {
	return id.gen != 0 && int(id.slot) < len(s.slots) &&
		s.slots[id.slot].gen == id.gen && s.slots[id.slot].h != nil
}

// At enqueues h to be dispatched with arg at absolute time at. Scheduling
// in the past (before Now) panics: in a handshake model a causality
// violation is always a modeling bug and must not be silently reordered.
// This is the zero-allocation hot path; the returned EventID can cancel
// the event and costs nothing to discard.
func (s *Scheduler) At(at Time, h Handler, arg int64) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if h == nil {
		panic("sim: schedule with nil handler")
	}
	idx := s.alloc(h, arg)
	sl := &s.slots[idx]
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
	sl.cls = c
	if c == heapClass {
		q.pushHeap(entry{key: k, slot: idx, gen: sl.gen})
		return EventID{slot: idx, gen: sl.gen}
	}
	r := &q.rings[c]
	if r.n == len(r.buf) {
		r.grow()
	}
	e := &r.buf[(r.first+r.n)&(len(r.buf)-1)]
	e.key, e.slot, e.gen = k, idx, sl.gen
	if r.n++; r.n == 1 {
		if len(q.heads) == 0 {
			q.heads = append(q.heads, head{key: k, cls: c})
		} else {
			q.addHead(c, k)
		}
	}
	return EventID{slot: idx, gen: sl.gen}
}

// In enqueues h to be dispatched with arg after delay picoseconds,
// saturating at Never on overflow (an event at Never is beyond every
// finite RunUntil deadline). The zero-allocation hot path.
func (s *Scheduler) In(delay Time, h Handler, arg int64) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return s.At(AddSat(s.now, delay), h, arg)
}

// alloc takes a slab slot for a new pending event.
func (s *Scheduler) alloc(h Handler, arg int64) int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.h, sl.arg = h, arg
	return idx
}

// Cancel removes a pending event. Canceling an already-fired,
// already-canceled, or zero EventID is a no-op and returns false. The
// event's queue entry is left behind stale and skipped (or compacted
// away) later; Len drops at once.
func (s *Scheduler) Cancel(id EventID) bool {
	if !s.Pending(id) {
		return false
	}
	cls := s.slots[id.slot].cls
	s.release(id.slot)
	s.noteStale(cls)
	return true
}

// release returns a slot to the free list, advancing its generation so
// outstanding EventIDs and queue entries for it go stale.
func (s *Scheduler) release(idx int32) {
	sl := &s.slots[idx]
	sl.h = nil // drop the handler reference; slots outlive events
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1 // skip the invalid generation on wraparound
	}
	s.free = append(s.free, idx)
}

// isStale reports whether a queue entry no longer stands for a pending
// event: it was canceled, so the slot generation moved on.
func (s *Scheduler) isStale(e *entry) bool {
	return s.slots[e.slot].gen != e.gen
}

// nextAt returns the time of the earliest pending event, or Never when
// none is pending.
func (s *Scheduler) nextAt() Time {
	for {
		e := s.q.front()
		if e == nil {
			return Never
		}
		if s.q.stale == 0 || !s.isStale(e) {
			return e.at
		}
		_, cls := s.q.pop(Never)
		s.q.dropped(cls)
	}
}

// Stop makes the currently running Run/RunUntil loop return after the
// in-flight event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step dispatches the earliest pending event if its time is at most
// deadline, advancing the clock. It reports whether an event was
// dispatched.
func (s *Scheduler) step(deadline Time) bool {
	q := &s.q
	for {
		e, cls := q.pop(deadline)
		if cls == noEntry {
			return false
		}
		if q.stale > 0 && s.isStale(&e) {
			q.dropped(cls)
			continue
		}
		s.now = e.at
		idx := e.slot
		sl := &s.slots[idx]
		h, arg := sl.h, sl.arg
		// Release before dispatch: a self-rescheduling handler chain then
		// recycles one slot forever instead of walking the slab.
		s.release(idx)
		s.executed++
		h.OnEvent(arg)
		return true
	}
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
