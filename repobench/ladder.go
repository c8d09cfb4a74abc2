package main

import (
	"fmt"
	"time"

	"asyncnoc/internal/netlist"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
)

// ladderDepths are the mean queue depths that paper-sweep,
// mot32-multicast and chiplet-multicast reach (sim.queue_mean), so the
// ladder predicts how a kernel change moves each of them.
var ladderDepths = []int{24, 128, 512}

// ladderEvents is how many events one ladder rung times.
const ladderEvents = 2_000_000

// ladderDelays is the delay set the simulated hardware schedules with:
// every node's forward, acknowledge and throttle delays and the channel
// and interface constants of internal/timing.
func ladderDelays() ([]sim.Time, error) {
	delays := []sim.Time{timing.ChannelFwd, timing.ChannelAck, timing.NICycle, timing.SinkAck}
	for _, name := range netlist.AllNodeNames() {
		n, err := timing.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, d := range []sim.Time{n.FwdHeader, n.FwdBody, n.AckDelay, n.ThrottleAck} {
			if d > 0 {
				delays = append(delays, d)
			}
		}
	}
	return delays, nil
}

// ladderRung keeps a fixed population of self-rescheduling handlers in
// one scheduler: every dispatch re-arms its handler after the next delay
// of a pre-drawn sequence, so the queue depth stays at the population.
type ladderRung struct {
	s    *sim.Scheduler
	seq  []sim.Time
	next int
	left int
}

type ladderHandler struct{ rung *ladderRung }

func (h *ladderHandler) OnEvent(int64) {
	l := h.rung
	l.left--
	if l.left == 0 {
		l.s.Stop()
	}
	l.s.In(l.seq[l.next], h, 0)
	l.next = (l.next + 1) & (len(l.seq) - 1)
}

// ladderNs returns the host ns per dispatched event at one depth.
func ladderNs(depth int, delays []sim.Time) float64 {
	r := rng.New(uint64(depth))
	l := &ladderRung{s: sim.NewScheduler(), seq: make([]sim.Time, 4096)}
	for i := range l.seq {
		l.seq[i] = delays[r.Intn(len(delays))]
	}
	for i := 0; i < depth; i++ {
		l.s.In(l.seq[i%len(l.seq)], &ladderHandler{l}, 0)
	}
	// Warm up, so the slab and heap reach their steady size, then time.
	l.left = ladderEvents / 10
	l.s.Run()
	l.left = ladderEvents
	start := time.Now()
	l.s.Run()
	return float64(time.Since(start).Nanoseconds()) / ladderEvents
}

// ladder reports sim.ladder_ns.d<depth> for every depth.
func (r *runner) ladder() error {
	if r.record {
		return nil
	}
	delays, err := ladderDelays()
	if err != nil {
		return err
	}
	for _, d := range ladderDepths {
		ns := ladderNs(d, delays)
		r.set(fmt.Sprintf("sim.ladder_ns.d%d", d), ns, "ns")
		note("ladder depth %d: %.1f ns/event", d, ns)
	}
	return nil
}
