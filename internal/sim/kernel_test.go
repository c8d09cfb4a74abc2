// Kernel-specific tests: a randomized schedule/cancel/reschedule property
// checked against a naive sorted-slice reference scheduler, and
// allocation-reporting benchmarks for the zero-allocation contract of the
// At/In + dispatch + Cancel hot path.
package sim

import (
	"testing"
	"testing/quick"
)

// refEv mirrors one pending event in the reference scheduler.
type refEv struct {
	at  Time
	seq uint64
	tag int64
}

// refSched is the reference implementation: an unordered slice scanned
// for the stable minimum by (at, seq). Quadratic and obviously correct.
type refSched struct{ evs []refEv }

func (r *refSched) add(at Time, seq uint64, tag int64) {
	r.evs = append(r.evs, refEv{at: at, seq: seq, tag: tag})
}

func (r *refSched) cancel(tag int64) bool {
	for i := range r.evs {
		if r.evs[i].tag == tag {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refSched) popMin() (refEv, bool) {
	if len(r.evs) == 0 {
		return refEv{}, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		e, b := r.evs[i], r.evs[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	return ev, true
}

// dispatchRec is one observed dispatch: the payload tag and the clock.
type dispatchRec struct {
	tag int64
	at  Time
}

// tagRecorder logs every dispatch it receives.
type tagRecorder struct {
	s   *Scheduler
	log []dispatchRec
}

func (h *tagRecorder) OnEvent(arg int64) {
	h.log = append(h.log, dispatchRec{tag: arg, at: h.s.Now()})
}

// TestKernelMatchesReferenceProperty drives arbitrary interleavings of
// schedule, cancel, reschedule, and single-step dispatch through both the
// kernel and the reference scheduler and requires identical dispatch
// sequences (tags and timestamps), identical Cancel outcomes, and correct
// staleness of spent EventIDs.
func TestKernelMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		s := NewScheduler()
		rec := &tagRecorder{s: s}
		ref := &refSched{}
		live := make(map[int64]EventID)
		liveOrder := []int64{} // deterministic pick among live tags
		var nextTag int64
		var seq uint64 // mirrors the kernel's per-At sequence counter

		pick := func(sel uint32) (int64, bool) {
			if len(liveOrder) == 0 {
				return 0, false
			}
			return liveOrder[int(sel)%len(liveOrder)], true
		}
		drop := func(tag int64) {
			delete(live, tag)
			for i, v := range liveOrder {
				if v == tag {
					liveOrder = append(liveOrder[:i], liveOrder[i+1:]...)
					break
				}
			}
		}
		schedule := func(delay Time) {
			tag := nextTag
			nextTag++
			at := s.Now() + delay
			id := s.At(at, rec, tag)
			ref.add(at, seq, tag)
			seq++
			live[tag] = id
			liveOrder = append(liveOrder, tag)
		}
		checkStep := func() bool {
			before := len(rec.log)
			did := s.step(Never)
			want, ok := ref.popMin()
			if did != ok {
				t.Logf("step dispatched=%v, reference had event=%v", did, ok)
				return false
			}
			if !ok {
				return true
			}
			drop(want.tag)
			if len(rec.log) != before+1 {
				t.Logf("step logged %d dispatches, want 1", len(rec.log)-before)
				return false
			}
			got := rec.log[len(rec.log)-1]
			if got.tag != want.tag || got.at != want.at {
				t.Logf("dispatched (tag=%d at=%v), want (tag=%d at=%v)",
					got.tag, got.at, want.tag, want.at)
				return false
			}
			return true
		}

		for _, op := range ops {
			sel := op >> 3
			switch op % 8 {
			case 0, 1, 2: // schedule with a small pseudo-random delay
				schedule(Time(sel % 97))
			case 3: // cancel a live event; both sides must agree
				if tag, ok := pick(sel); ok {
					if !s.Cancel(live[tag]) {
						t.Logf("Cancel of live tag %d returned false", tag)
						return false
					}
					if !ref.cancel(tag) {
						t.Logf("reference missing live tag %d", tag)
						return false
					}
					stale := live[tag]
					drop(tag)
					if s.Cancel(stale) {
						t.Logf("second Cancel of tag %d returned true", tag)
						return false
					}
				}
			case 4: // reschedule: cancel + schedule at a fresh time
				if tag, ok := pick(sel); ok {
					s.Cancel(live[tag])
					ref.cancel(tag)
					drop(tag)
					schedule(Time(sel % 131))
				}
			case 5, 6: // dispatch one event
				if !checkStep() {
					return false
				}
			case 7: // canceling the zero ID is always a no-op
				if s.Cancel(EventID{}) {
					t.Log("Cancel of zero EventID returned true")
					return false
				}
			}
			if s.Len() != len(ref.evs) {
				t.Logf("Len() = %d, reference holds %d", s.Len(), len(ref.evs))
				return false
			}
		}
		// Drain both schedulers completely and compare the tails.
		for {
			want, ok := ref.popMin()
			did := s.step(Never)
			if did != ok {
				t.Logf("drain: dispatched=%v, reference=%v", did, ok)
				return false
			}
			if !ok {
				break
			}
			got := rec.log[len(rec.log)-1]
			if got.tag != want.tag || got.at != want.at {
				t.Logf("drain dispatched (tag=%d at=%v), want (tag=%d at=%v)",
					got.tag, got.at, want.tag, want.at)
				return false
			}
		}
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPending covers the EventID liveness probe across fire and cancel.
func TestPending(t *testing.T) {
	s := NewScheduler()
	var nop nopHandler
	id := s.At(10, &nop, 0)
	if !s.Pending(id) {
		t.Error("Pending(live) = false")
	}
	s.Run()
	if s.Pending(id) {
		t.Error("Pending(fired) = true")
	}
	id2 := s.At(20, &nop, 0)
	s.Cancel(id2)
	if s.Pending(id2) {
		t.Error("Pending(canceled) = true")
	}
	if s.Pending(EventID{}) {
		t.Error("Pending(zero) = true")
	}
}

// TestAddSat pins the saturating deadline arithmetic.
func TestAddSat(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 0, 0},
		{1, 2, 3},
		{Never, 1, Never},
		{1, Never, Never},
		{Never, Never, Never},
		{Never - 1, 1, Never},
		{Never - 1, 2, Never},
		{Never / 2, Never/2 + 2, Never},
		{-5, 3, -2},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestInOverflowSaturates schedules with a delay that would overflow the
// clock and expects the event to land at Never instead of panicking.
func TestInOverflowSaturates(t *testing.T) {
	s := NewScheduler()
	var nop nopHandler
	s.At(100, &nop, 0)
	s.RunUntil(100)
	id := s.In(Never-50, &nop, 0)
	if !s.Pending(id) {
		t.Fatal("overflowing In did not schedule")
	}
	s.RunUntil(Never - 1)
	if !s.Pending(id) {
		t.Error("event at Never dispatched before the deadline Never-1")
	}
}

// nopHandler is an inert dispatch target for benchmarks and tests.
type nopHandler struct{}

func (*nopHandler) OnEvent(int64) {}

// chainHandler reschedules itself until its budget is exhausted: the
// steady-state pattern of a handshake component (one event in flight,
// slot recycled every dispatch).
type chainHandler struct {
	s    *Scheduler
	left int
}

func (h *chainHandler) OnEvent(int64) {
	if h.left > 0 {
		h.left--
		h.s.In(1, h, 0)
	}
}

// BenchmarkKernelScheduleDispatch measures one In + one dispatch per op
// on a self-rescheduling chain. Must report 0 allocs/op.
func BenchmarkKernelScheduleDispatch(b *testing.B) {
	s := NewScheduler()
	h := &chainHandler{s: s, left: b.N}
	s.At(0, h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// fanChainHandler keeps many events pending at once with varied delays,
// exercising real heap sifting instead of the depth-1 chain.
type fanChainHandler struct {
	s    *Scheduler
	left int
}

func (h *fanChainHandler) OnEvent(arg int64) {
	if h.left > 0 {
		h.left--
		h.s.In(Time(1+(arg*7)%97), h, arg)
	}
}

// BenchmarkKernelScheduleDispatchFanout measures schedule + dispatch with
// 64 interleaved chains (a 64-deep heap in steady state). Must report 0
// allocs/op.
func BenchmarkKernelScheduleDispatchFanout(b *testing.B) {
	s := NewScheduler()
	h := &fanChainHandler{s: s, left: b.N}
	for i := 0; i < 64; i++ {
		s.At(Time(i), h, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelCancel measures one Cancel + one replacement At per op
// against a 512-event pending window. Must report 0 allocs/op.
func BenchmarkKernelCancel(b *testing.B) {
	s := NewScheduler()
	var nop nopHandler
	const window = 512
	ids := make([]EventID, window)
	for i := range ids {
		ids[i] = s.At(Time(i+1), &nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % window
		s.Cancel(ids[j])
		ids[j] = s.At(Time(j+1), &nop, 0)
	}
}

// TestCancelChurnBounded cancels almost everything it schedules, into
// both a delay-class ring and the general heap, for many rounds: stale
// entries must be compacted away so the queue stays at the size of its
// live population instead of growing with the number of cancels.
func TestCancelChurnBounded(t *testing.T) {
	s := NewScheduler()
	var nop nopHandler
	for i := 0; i < promoteAfter; i++ {
		s.In(5000, &nop, 0)
	}
	s.Run()
	const batch = 50
	ids := make([]EventID, 0, 2*batch)
	for round := 0; round < 2000; round++ {
		ids = ids[:0]
		for i := 0; i < batch; i++ {
			ids = append(ids, s.In(5000, &nop, 0))
			ids = append(ids, s.In(Time(1000+(i*7919+round*104729)%100000), &nop, 0))
		}
		// Keep one event of each kind per round; cancel the rest in an
		// order that leaves stale entries at the fronts and in the middle.
		for i := len(ids) - 1; i >= 2; i-- {
			if !s.Cancel(ids[i]) {
				t.Fatalf("round %d: Cancel of a live event failed", round)
			}
		}
		s.RunUntil(s.Now() + 3)
		if err := checkQueue(s); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	live := s.Len()
	if n := len(s.q.heap); n > 2*live+2*batch {
		t.Errorf("heap holds %d entries for %d live events", n, live)
	}
	for c := range s.q.rings {
		r := &s.q.rings[c]
		if ringLive := r.n - r.stale; r.n > 2*ringLive+2*batch || len(r.buf) > 4*(ringLive+batch) {
			t.Errorf("ring %d holds %d entries in %d slots for %d live events", c, r.n, len(r.buf), ringLive)
		}
	}
	if n := len(s.slots); n > live+2*batch {
		t.Errorf("slab grew to %d slots for %d live events", n, live)
	}
}
