package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// funcHandler adapts a closure to Handler for the tests below.
type funcHandler func()

func (f funcHandler) OnEvent(int64) { f() }

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ps"},
		{999, "999ps"},
		{Nanosecond, "1.000ns"},
		{2500, "2.500ns"},
		{Microsecond, "1.000us"},
		{Never, "never"},
		// Negative durations keep the adaptive unit of their magnitude.
		{-1, "-1ps"},
		{-999, "-999ps"},
		{-2500, "-2.500ns"},
		{-Microsecond, "-1.000us"},
		{-Never, "-9223372036854.775us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeNanoseconds(t *testing.T) {
	if got := Time(2500).Nanoseconds(); got != 2.5 {
		t.Errorf("Nanoseconds() = %v, want 2.5", got)
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, funcHandler(func() { order = append(order, 3) }), 0)
	s.At(10, funcHandler(func() { order = append(order, 1) }), 0)
	s.At(20, funcHandler(func() { order = append(order, 2) }), 0)
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v after run, want 30", s.Now())
	}
	if s.Executed() != 3 {
		t.Errorf("Executed() = %d, want 3", s.Executed())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(42, funcHandler(func() { order = append(order, i) }), 0)
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO at %d: got %v", i, v)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var fired Time
	s.At(100, funcHandler(func() {
		s.In(50, funcHandler(func() { fired = s.Now() }), 0)
	}), 0)
	s.Run()
	if fired != 150 {
		t.Errorf("After fired at %v, want 150", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, funcHandler(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, funcHandler(func() {}), 0)
	}), 0)
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.In(-1, funcHandler(func() {}), 0)
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i), funcHandler(func() {
			count++
			if count == 5 {
				s.Stop()
			}
		}), 0)
	}
	s.Run()
	if count != 5 {
		t.Errorf("ran %d events after Stop, want 5", count)
	}
	if s.Len() != 5 {
		t.Errorf("queue has %d pending, want 5", s.Len())
	}
	// Run can resume after a Stop.
	s.Run()
	if count != 10 {
		t.Errorf("resume ran to %d events, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, funcHandler(func() { fired = append(fired, at) }), 0)
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want [10 20]", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v, want deadline 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("second RunUntil fired %v, want all 4", fired)
	}
	if s.Now() != 100 {
		t.Errorf("Now() = %v, want 100", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(25, funcHandler(func() { ran = true }), 0)
	s.RunUntil(25)
	if !ran {
		t.Error("event exactly at deadline did not run")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 50 {
			s.In(1, funcHandler(schedule), 0)
		}
	}
	s.At(0, funcHandler(schedule), 0)
	s.Run()
	if depth != 50 {
		t.Errorf("chained scheduling reached depth %d, want 50", depth)
	}
	if s.Now() != 49 {
		t.Errorf("Now() = %v, want 49", s.Now())
	}
}

// Property: for any multiset of timestamps, the scheduler dispatches them in
// sorted order (stable for equal keys).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var got []Time
		for _, r := range raw {
			at := Time(r)
			s.At(at, funcHandler(func() { got = append(got, at) }), 0)
		}
		s.Run()
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		return len(got) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), funcHandler(func() {}), 0)
		}
		s.Run()
	}
}
