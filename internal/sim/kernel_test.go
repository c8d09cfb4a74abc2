// Kernel-specific tests: a randomized schedule/dispatch property checked
// against a naive sorted-slice reference scheduler, and
// allocation-reporting benchmarks for the zero-allocation contract of the
// At/In + dispatch hot path.
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
// schedule and single-step dispatch through both the kernel and the
// reference scheduler and requires identical dispatch sequences (tags
// and timestamps) and pending counts.
func TestKernelMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		s := NewScheduler()
		rec := &tagRecorder{s: s}
		ref := &refSched{}
		var nextTag int64
		var seq uint64 // mirrors the kernel's per-At sequence counter

		schedule := func(delay Time) {
			tag := nextTag
			nextTag++
			at := s.Now() + delay
			s.At(at, rec, tag)
			ref.add(at, seq, tag)
			seq++
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
			switch op % 6 {
			case 0, 1, 2: // schedule with a small pseudo-random delay
				schedule(Time(sel % 97))
			case 3: // schedule further out
				schedule(Time(sel % 131))
			case 4, 5: // dispatch one event
				if !checkStep() {
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
	s.In(Never-50, &nop, 0)
	if s.Len() != 1 {
		t.Fatal("overflowing In did not schedule")
	}
	s.RunUntil(Never - 1)
	if s.Len() != 1 || s.Executed() != 1 {
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
