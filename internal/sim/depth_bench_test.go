package sim_test

import (
	"testing"

	"asyncnoc/internal/netlist"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
)

// hardwareDelays is the delay set the simulated hardware schedules with:
// the channel and interface constants plus every node's forward,
// acknowledge and throttle delays.
func hardwareDelays(b *testing.B) []sim.Time {
	ds := []sim.Time{timing.ChannelFwd, timing.ChannelAck, timing.NICycle, timing.SinkAck}
	for _, name := range netlist.AllNodeNames() {
		n, err := timing.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range []sim.Time{n.FwdHeader, n.FwdBody, n.AckDelay, n.ThrottleAck} {
			if d > 0 {
				ds = append(ds, d)
			}
		}
	}
	return ds
}

// depthRig keeps a fixed population of self-rescheduling handlers in one
// scheduler: every dispatch re-arms its handler after the next delay of a
// pre-drawn sequence, so the queue stays at the population's depth.
type depthRig struct {
	s    *sim.Scheduler
	seq  []sim.Time
	next int
	left int
}

type depthHandler struct{ rig *depthRig }

func (h *depthHandler) OnEvent(int64) {
	r := h.rig
	if r.left--; r.left == 0 {
		r.s.Stop()
	}
	r.s.In(r.seq[r.next], h, 0)
	r.next = (r.next + 1) & (len(r.seq) - 1)
}

// benchDepth measures ns per dispatched event (one dispatch plus one In)
// with depth events pending, the queue depths real runs reach. Must
// report 0 allocs/op.
func benchDepth(b *testing.B, depth int) {
	delays := hardwareDelays(b)
	r := rng.New(uint64(depth))
	rig := &depthRig{s: sim.NewScheduler(), seq: make([]sim.Time, 4096)}
	for i := range rig.seq {
		rig.seq[i] = delays[r.Intn(len(delays))]
	}
	for i := 0; i < depth; i++ {
		rig.s.In(rig.seq[i], &depthHandler{rig}, 0)
	}
	// Warm up, so the slab, rings and heap reach their steady size.
	rig.left = 100 * depth
	rig.s.Run()
	rig.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	rig.s.Run()
}

func BenchmarkKernelDepth24(b *testing.B)  { benchDepth(b, 24) }
func BenchmarkKernelDepth128(b *testing.B) { benchDepth(b, 128) }
func BenchmarkKernelDepth512(b *testing.B) { benchDepth(b, 512) }
