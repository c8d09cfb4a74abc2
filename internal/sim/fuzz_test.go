package sim

import (
	"fmt"
	"testing"
)

// fuzzDelays are the recurring delays the fuzzer schedules with: more of
// them than maxClasses, so some recur without ever getting a ring.
var fuzzDelays = func() []Time {
	ds := make([]Time, maxClasses+8)
	for i := range ds {
		ds[i] = Time(3 + 7*i)
	}
	return ds
}()

// fuzzRig drives one Scheduler and the sorted-slice reference side by
// side. The kernel-side handler logs every dispatch and, for events
// marked to spawn, schedules a child from inside the dispatch, mirroring
// it into the reference at the same point in schedule order.
type fuzzRig struct {
	s     *Scheduler
	ref   refSched
	seq   uint64
	tag   int64
	log   []dispatchRec
	spawn map[int64]Time
}

func (r *fuzzRig) OnEvent(tag int64) {
	r.log = append(r.log, dispatchRec{tag: tag, at: r.s.Now()})
	if d, ok := r.spawn[tag]; ok {
		delete(r.spawn, tag)
		r.in(d)
	}
}

// add records an event the kernel just queued at time at.
func (r *fuzzRig) add(at Time) int64 {
	tag := r.tag
	r.tag++
	r.ref.add(at, r.seq, tag)
	r.seq++
	return tag
}

func (r *fuzzRig) in(d Time) int64 {
	r.s.In(d, r, r.tag)
	return r.add(AddSat(r.s.Now(), d))
}

func (r *fuzzRig) at(at Time) int64 {
	r.s.At(at, r, r.tag)
	return r.add(at)
}

// expect pops every reference event due by deadline and checks that the
// kernel dispatched exactly those, in order, since log position from.
func (r *fuzzRig) expect(from int, deadline Time) error {
	i := from
	for len(r.ref.evs) > 0 {
		want, _ := r.ref.popMin()
		if want.at > deadline {
			r.ref.add(want.at, want.seq, want.tag)
			break
		}
		if i >= len(r.log) {
			return fmt.Errorf("kernel stopped before (tag=%d at=%v)", want.tag, want.at)
		}
		if got := r.log[i]; got.tag != want.tag || got.at != want.at {
			return fmt.Errorf("dispatch %d: got (tag=%d at=%v), want (tag=%d at=%v)",
				i, got.tag, got.at, want.tag, want.at)
		}
		i++
	}
	if i != len(r.log) {
		return fmt.Errorf("kernel dispatched %d events, reference %d", len(r.log)-from, i-from)
	}
	return nil
}

// checkQueue verifies the queue's bookkeeping against its contents:
// heap and ring order, the head heap, that every entry points at an
// occupied slab slot, and that Len counts exactly the queued entries.
func checkQueue(s *Scheduler) error {
	q := &s.q
	entries := len(q.heap)
	occupied := func(e *entry) error {
		if s.slots[e.slot].h == nil {
			return fmt.Errorf("entry (at=%v seq=%d) points at free slot %d", e.at, e.seq, e.slot)
		}
		return nil
	}
	for i := range q.heap {
		if err := occupied(&q.heap[i]); err != nil {
			return err
		}
		if p := (i - 1) / heapArity; i > 0 && q.heap[i].key.before(q.heap[p].key) {
			return fmt.Errorf("heap order broken at %d", i)
		}
	}
	nonEmpty := 0
	for c := range q.rings {
		r := &q.rings[c]
		for i := 0; i < r.n; i++ {
			e := &r.buf[(r.first+i)&(len(r.buf)-1)]
			if err := occupied(e); err != nil {
				return err
			}
			if i > 0 && e.key.before(r.buf[(r.first+i-1)&(len(r.buf)-1)].key) {
				return fmt.Errorf("ring %d out of order at %d", c, i)
			}
		}
		if r.n > 0 {
			nonEmpty++
			found := false
			for _, h := range q.heads {
				if h.cls == int32(c) {
					found = h.key == r.buf[r.first].key
				}
			}
			if !found {
				return fmt.Errorf("ring %d head missing or stale in the head heap", c)
			}
		}
		entries += r.n
	}
	if nonEmpty != len(q.heads) {
		return fmt.Errorf("%d non-empty rings, %d heads", nonEmpty, len(q.heads))
	}
	for i := 1; i < len(q.heads); i++ {
		if q.heads[i].key.before(q.heads[(i-1)/2].key) {
			return fmt.Errorf("head heap order broken at %d", i)
		}
	}
	if entries != s.Len() {
		return fmt.Errorf("%d queued entries, Len %d", entries, s.Len())
	}
	if used := len(s.slots) - len(s.free); used != entries {
		return fmt.Errorf("%d slab slots in use for %d queued entries", used, entries)
	}
	return nil
}

// FuzzScheduler checks the kernel against the reference scheduler over
// arbitrary interleavings of: In with recurring delays (more than the
// class cap, so both rings and the general heap carry them), one-off
// delays, absolute At (zero delay, Never, and saturating In), events
// that schedule a child while dispatching, single steps and RunUntil
// at random deadlines. The first byte pre-promotes
// none, some or all of the recurring delays. After every operation Len
// must match the reference and the queue's bookkeeping must be exact.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 0, 5, 0, 9, 5, 0, 5, 1, 7, 5, 2, 9, 200})
	long := make([]byte, 4096)
	x := uint32(2016)
	for i := range long {
		x = x*1664525 + 1013904223
		long[i] = byte(x >> 24)
	}
	for lvl := byte(0); lvl < 3; lvl++ {
		long[0] = lvl
		f.Add(append([]byte(nil), long...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScheduler()
		r := &fuzzRig{s: s, spawn: map[int64]Time{}}
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		// Pre-promote delays one at a time, so their recurrence counts
		// never collide.
		var nop nopHandler
		warm := []int{0, 8, len(fuzzDelays)}[next()%3]
		for _, d := range fuzzDelays[:warm] {
			for i := 0; i < promoteAfter; i++ {
				s.In(d, &nop, 0)
			}
			s.Run()
		}
		for pos < len(data) {
			from := len(r.log)
			switch next() % 8 {
			case 0, 1:
				r.in(fuzzDelays[next()%len(fuzzDelays)])
			case 2:
				r.in(Time(1000 + next()<<8 | next()))
			case 3:
				switch next() % 3 {
				case 0:
					r.at(s.Now())
				case 1:
					r.at(Never)
				default:
					r.in(Never - Time(next()))
				}
			case 4:
				tag := r.in(fuzzDelays[next()%len(fuzzDelays)])
				r.spawn[tag] = fuzzDelays[next()%len(fuzzDelays)]
			case 5, 6:
				did := s.step(Never)
				want, ok := r.ref.popMin()
				if did != ok {
					t.Fatalf("step dispatched=%v, reference had an event=%v", did, ok)
				}
				if ok && (len(r.log) != from+1 || r.log[from] != dispatchRec{tag: want.tag, at: want.at}) {
					t.Fatalf("step: logged %v, want (tag=%d at=%v)", r.log[from:], want.tag, want.at)
				}
			case 7:
				deadline := AddSat(s.Now(), Time(next()*8))
				s.RunUntil(deadline)
				if err := r.expect(from, deadline); err != nil {
					t.Fatal(err)
				}
				if s.Now() != deadline {
					t.Fatalf("RunUntil(%v) left the clock at %v", deadline, s.Now())
				}
			}
			if s.Len() != len(r.ref.evs) {
				t.Fatalf("Len() = %d, reference holds %d", s.Len(), len(r.ref.evs))
			}
			if err := checkQueue(s); err != nil {
				t.Fatal(err)
			}
		}
		from := len(r.log)
		s.Run()
		if err := r.expect(from, Never); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("Len() = %d after draining", s.Len())
		}
	})
}
