// Package metrics implements the measurement methodology of Section 5.1:
// long warmup and measurement phases, per-packet network latency measured
// from injection up to the arrival of ALL headers at their destinations,
// and accepted throughput counted as flit deliveries at the destination
// interfaces.
package metrics

import (
	"asyncnoc/internal/fault"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/pool"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/stats"
)

// pktStat tracks one logical packet's delivery progress. It is pure value
// state — it holds no reference to the packet itself, so delivery tracking
// never keeps a pooled packet alive or reads one after it recycles.
type pktStat struct {
	arrived  packet.DestSet
	measured bool
	done     bool
}

// Recorder accumulates the measurements of one simulation run.
//
// Only packets created inside the measurement window [WindowStart,
// WindowEnd) contribute latency samples and completion accounting; flit
// deliveries are likewise counted only when they land inside the window.
type Recorder struct {
	WindowStart, WindowEnd sim.Time

	// pktSlab holds live delivery-tracking records; pktIdx maps packet ID
	// to slab handle. Both recycle completed packets' storage, so a long
	// run's tracking state costs only its in-flight high-water mark.
	pktSlab     pool.Slab[pktStat]
	pktIdx      pool.IDMap
	latenciesNs []float64

	// summary caches the sort-once latency summary; it is invalidated
	// whenever a new sample lands (summaryN trails len(latenciesNs)).
	summary  *stats.Summary
	summaryN int

	// lossTolerant accepts header arrivals of unregistered packets:
	// with the fault layer's retry budget, a packet can be written off
	// (PacketLost) while its final attempt's flits are still in flight,
	// so a late header is a legitimate straggler rather than a protocol
	// violation. Off by default — fault-free networks keep the strict
	// unregistered-delivery panic.
	lossTolerant bool
	lateHeaders  int

	deliveredFlits  int64
	measuredCreated int
	measuredDone    int
	lostPackets     int
	measuredLost    int

	// hierarchy arms the intra-die vs die-to-die breakout on chiplet
	// compositions: completed packets also land a latency sample in the
	// per-class slice (by Packet.D2DHops), and D2D flit deliveries are
	// counted separately.
	hierarchy       bool
	latIntraNs      []float64
	latD2DNs        []float64
	d2dFlits        int64
	measuredDoneD2D int

	// levelForwards/levelThrottles count fanout activity per tree level
	// inside the measurement window (root level first).
	levelForwards  []int64
	levelThrottles []int64
}

// NewRecorder returns a Recorder with an open-ended window; call
// SetWindow before the measurement phase.
func NewRecorder() *Recorder {
	return &Recorder{WindowEnd: sim.Never}
}

// Reserve pre-sizes the per-packet tracking pools and the latency sample
// buffer for a run expected to inject `packets` logical packets, so a run
// matching its injection schedule performs no tracking growth at all.
// Underestimates are safe — the structures grow on demand as before.
func (r *Recorder) Reserve(packets int) {
	if packets <= 0 {
		return
	}
	r.pktSlab.Reserve(packets)
	r.pktIdx.Reserve(packets)
	if cap(r.latenciesNs) < packets {
		grown := make([]float64, len(r.latenciesNs), packets)
		copy(grown, r.latenciesNs)
		r.latenciesNs = grown
	}
}

// SetWindow fixes the measurement window.
func (r *Recorder) SetWindow(start, end sim.Time) {
	r.WindowStart, r.WindowEnd = start, end
}

// SetLossTolerant arms fault-mode accounting: header arrivals of packets
// already written off by PacketLost are counted as late stragglers
// instead of panicking.
func (r *Recorder) SetLossTolerant(on bool) { r.lossTolerant = on }

// SetHierarchy arms the intra-die vs die-to-die measurement breakout
// (chiplet compositions).
func (r *Recorder) SetHierarchy(on bool) { r.hierarchy = on }

// SetLevels sizes the per-level fanout utilization counters for a
// network with `levels` fanout tree levels.
func (r *Recorder) SetLevels(levels int) {
	r.levelForwards = make([]int64, levels)
	r.levelThrottles = make([]int64, levels)
}

func (r *Recorder) inWindow(t sim.Time) bool {
	return t >= r.WindowStart && t < r.WindowEnd
}

// PacketCreated registers a logical packet at its creation time. Serial
// multicast clones must NOT be registered — only their parent.
func (r *Recorder) PacketCreated(p *packet.Packet, now sim.Time) {
	if _, dup := r.pktIdx.Get(p.ID); dup {
		panic(fault.Violationf("metrics", "packet %d registered twice", p.ID))
	}
	h, st := r.pktSlab.Alloc()
	st.measured = r.inWindow(now)
	r.pktIdx.Put(p.ID, h)
	if st.measured {
		r.measuredCreated++
	}
}

// logicalOf resolves a serial clone to its registered parent packet.
func logicalOf(p *packet.Packet) *packet.Packet {
	if p.Parent != nil {
		return p.Parent
	}
	return p
}

// HeaderArrived records the arrival of a header flit of packet p (or of a
// serial clone of p) at destination dest. Duplicate deliveries indicate a
// throttling failure and panic.
func (r *Recorder) HeaderArrived(p *packet.Packet, dest int, now sim.Time) {
	logical := logicalOf(p)
	h, ok := r.pktIdx.Get(logical.ID)
	if !ok {
		if r.lossTolerant {
			// A header of a packet already written off by the retry
			// budget: the final attempt's flits were still in flight at
			// write-off time.
			r.lateHeaders++
			return
		}
		panic(fault.Violationf("metrics", "header of unregistered packet %d", logical.ID))
	}
	st := r.pktSlab.Get(h)
	if st.arrived.Has(dest) {
		panic(fault.Violationf("metrics", "duplicate header delivery of packet %d to dest %d", logical.ID, dest))
	}
	if !logical.Dests.Has(dest) {
		panic(fault.Violationf("metrics", "packet %d delivered to non-destination %d (dests %v)",
			logical.ID, dest, logical.Dests))
	}
	st.arrived = st.arrived.Add(dest)
	if st.arrived == logical.Dests && !st.done {
		st.done = true
		if st.measured {
			r.measuredDone++
			lat := sim.Time(int64(now) - logical.CreatedAt).Nanoseconds()
			r.latenciesNs = append(r.latenciesNs, lat)
			if r.hierarchy {
				if logical.D2DHops > 0 {
					r.measuredDoneD2D++
					r.latD2DNs = append(r.latD2DNs, lat)
				} else {
					r.latIntraNs = append(r.latIntraNs, lat)
				}
			}
		}
		// Completed packets no longer need tracking: the slot recycles.
		r.pktIdx.Delete(logical.ID)
		r.pktSlab.Free(h)
	}
}

// PacketLost removes a packet (or serial clone) written off by the
// network interface's retransmission budget from delivery tracking, so
// long fault runs do not accumulate per-packet state for packets that can
// never complete. Losing an already-completed or already-lost packet is a
// no-op.
func (r *Recorder) PacketLost(p *packet.Packet, now sim.Time) {
	logical := logicalOf(p)
	h, ok := r.pktIdx.Get(logical.ID)
	if !ok {
		return // already complete, or a sibling clone was lost first
	}
	measured := r.pktSlab.Get(h).measured
	r.pktIdx.Delete(logical.ID)
	r.pktSlab.Free(h)
	r.lostPackets++
	if measured {
		r.measuredLost++
	}
}

// FlitDelivered counts one flit landing at a destination interface; d2d
// marks flits that crossed a die-to-die link (always false on
// single-die networks and meshes).
func (r *Recorder) FlitDelivered(now sim.Time, d2d bool) {
	if r.inWindow(now) {
		r.deliveredFlits++
		if d2d {
			r.d2dFlits++
		}
	}
}

// FanoutForwarded counts one flit committed to output ports by a fanout
// node at the given tree level (root = 0).
func (r *Recorder) FanoutForwarded(level int, now sim.Time) {
	if r.levelForwards != nil && r.inWindow(now) {
		r.levelForwards[level]++
	}
}

// FanoutThrottled counts one redundant (speculative) flit absorbed by a
// fanout node at the given tree level.
func (r *Recorder) FanoutThrottled(level int, now sim.Time) {
	if r.levelThrottles != nil && r.inWindow(now) {
		r.levelThrottles[level]++
	}
}

// ForwardsPerLevel returns the window-scoped per-level fanout forward
// counts (nil when SetLevels was never called). The slice is a copy.
func (r *Recorder) ForwardsPerLevel() []int64 {
	return append([]int64(nil), r.levelForwards...)
}

// ThrottlesPerLevel returns the window-scoped per-level throttle counts.
func (r *Recorder) ThrottlesPerLevel() []int64 {
	return append([]int64(nil), r.levelThrottles...)
}

// RedundantFraction returns throttled flits as a fraction of all fanout
// flit movements inside the window — the network-wide speculation waste.
func (r *Recorder) RedundantFraction() float64 {
	var fwd, thr int64
	for i := range r.levelForwards {
		fwd += r.levelForwards[i]
		thr += r.levelThrottles[i]
	}
	if fwd+thr == 0 {
		return 0
	}
	return float64(thr) / float64(fwd+thr)
}

// LatencySummary returns the sort-once summary of the completed measured
// packets' latencies. The summary is cached and rebuilt only after new
// samples arrive, so querying several percentiles costs one sort total.
func (r *Recorder) LatencySummary() *stats.Summary {
	if r.summary == nil || r.summaryN != len(r.latenciesNs) {
		r.summary = stats.NewSummary(r.latenciesNs)
		r.summaryN = len(r.latenciesNs)
	}
	return r.summary
}

// LatenciesNs exposes the raw samples (for tests and histograms).
func (r *Recorder) LatenciesNs() []float64 { return r.latenciesNs }

// ThroughputGFs returns the accepted throughput in gigaflits per second
// per source: flit deliveries inside the window divided by window length
// and source count.
func (r *Recorder) ThroughputGFs(sources int) float64 {
	window := r.WindowEnd - r.WindowStart
	if window <= 0 || sources <= 0 {
		return 0
	}
	return float64(r.deliveredFlits) / window.Nanoseconds() / float64(sources)
}

// D2DThroughputGFs returns the die-to-die share of the accepted
// throughput (flits that crossed a D2D link, in GF/s per source).
func (r *Recorder) D2DThroughputGFs(sources int) float64 {
	window := r.WindowEnd - r.WindowStart
	if window <= 0 || sources <= 0 {
		return 0
	}
	return float64(r.d2dFlits) / window.Nanoseconds() / float64(sources)
}

// hierSummary summarizes one per-class latency sample set.
func hierSummary(samples []float64) (avg, p95 float64, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	s := stats.NewSummary(samples)
	return s.Mean(), s.P95(), true
}

// IntraLatency returns the mean and P95 latency of completed measured
// packets that stayed inside their source die (hierarchy mode only).
func (r *Recorder) IntraLatency() (avg, p95 float64, ok bool) {
	return hierSummary(r.latIntraNs)
}

// D2DLatency returns the mean and P95 latency of completed measured
// packets that crossed at least one die-to-die link.
func (r *Recorder) D2DLatency() (avg, p95 float64, ok bool) {
	return hierSummary(r.latD2DNs)
}

// MeasuredCompletedD2D returns how many completed measured packets
// crossed a die-to-die link.
func (r *Recorder) MeasuredCompletedD2D() int { return r.measuredDoneD2D }

// MeasuredCreated returns how many logical packets were injected inside
// the measurement window.
func (r *Recorder) MeasuredCreated() int { return r.measuredCreated }

// MeasuredCompleted returns how many of them have fully completed.
func (r *Recorder) MeasuredCompleted() int { return r.measuredDone }

// MeasuredLost returns how many measured-window packets were written off
// by the retransmission budget (PacketLost).
func (r *Recorder) MeasuredLost() int { return r.measuredLost }

// LostPackets returns the total packets written off across the whole run.
func (r *Recorder) LostPackets() int { return r.lostPackets }

// LateHeaders returns how many header arrivals landed after their packet
// was written off (loss-tolerant mode only).
func (r *Recorder) LateHeaders() int { return r.lateHeaders }

// TrackedPackets returns the number of packets currently held in the
// delivery-tracking pool (tests: soak runs must not grow this without
// bound).
func (r *Recorder) TrackedPackets() int { return r.pktSlab.Live() }

// CompletionRate returns the fraction of measured packets that completed
// (1 when nothing was measured — an idle network is not congested).
func (r *Recorder) CompletionRate() float64 {
	if r.measuredCreated == 0 {
		return 1
	}
	return float64(r.measuredDone) / float64(r.measuredCreated)
}
