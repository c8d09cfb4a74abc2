package core

import (
	"context"
	"fmt"
	"sort"

	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
)

// Injection is one entry of an explicit traffic schedule: at time At,
// source Src injects a packet to Dests. Schedules replay recorded or
// hand-crafted workloads instead of the synthetic Poisson benchmarks.
type Injection struct {
	At    sim.Time
	Src   int
	Dests packet.DestSet
}

// Schedule is a time-ordered list of injections.
type Schedule []Injection

// Validate checks the schedule against a network size.
func (s Schedule) Validate(n int) error {
	if len(s) == 0 {
		return fmt.Errorf("core: empty schedule")
	}
	for i, inj := range s {
		if inj.At < 0 {
			return fmt.Errorf("core: schedule[%d] at negative time %v", i, inj.At)
		}
		if inj.Src < 0 || inj.Src >= n {
			return fmt.Errorf("core: schedule[%d] source %d out of [0,%d)", i, inj.Src, n)
		}
		if inj.Dests.Empty() {
			return fmt.Errorf("core: schedule[%d] has no destinations", i)
		}
		if extra := inj.Dests &^ packet.Range(0, n); !extra.Empty() {
			return fmt.Errorf("core: schedule[%d] destinations %v out of range", i, extra)
		}
	}
	return nil
}

// End returns the latest injection time.
func (s Schedule) End() sim.Time {
	var end sim.Time
	for _, inj := range s {
		if inj.At > end {
			end = inj.At
		}
	}
	return end
}

// replayer injects schedule entries through a network; the event payload
// is the entry's index in the time-ordered schedule.
type replayer struct {
	nw      *network.Network
	ordered Schedule
}

// OnEvent implements sim.Handler.
func (rp *replayer) OnEvent(arg int64) {
	inj := rp.ordered[arg]
	if _, err := rp.nw.Inject(inj.Src, inj.Dests); err != nil {
		panic(err) // schedule validated by RunSchedule
	}
}

// RunSchedule replays an explicit schedule through a network and measures
// every injected packet (the window spans the whole schedule). Drain
// bounds the extra simulated time after the last injection. The result
// is built like Run's, under the benchmark name "schedule" and zero
// offered load. Protocol violations surface as *ProtocolError and a
// wedged replay as *DeadlockError.
func RunSchedule(spec network.Spec, sched Schedule, drain sim.Time) (res RunResult, err error) {
	defer RecoverViolations(spec.Name, &err)
	if spec.Chiplet != nil {
		// Schedule entries address destinations with one flat mask, which
		// cannot express a composed network's hierarchical space.
		return RunResult{}, fmt.Errorf("core: schedule replay does not support chiplet composition %s", spec.Name)
	}
	if err := sched.Validate(spec.N); err != nil {
		return RunResult{}, err
	}
	if drain < 0 {
		return RunResult{}, fmt.Errorf("core: negative drain %v", drain)
	}
	nw, err := network.New(spec)
	if err != nil {
		return RunResult{}, err
	}
	end := sim.AddSat(sched.End(), drain)
	nw.Rec.Reserve(len(sched)) // the schedule's packet count is exact
	nw.Rec.SetWindow(0, end)
	nw.Meter.SetWindow(0, end)
	ordered := append(Schedule(nil), sched...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	rp := &replayer{nw: nw, ordered: ordered}
	for i := range ordered {
		nw.Sched.At(ordered[i].At, rp, int64(i))
	}
	if err := runGuarded(context.Background(), nw, end, 0); err != nil {
		return RunResult{}, err
	}
	return collect(nw, "schedule", 0), nil
}
