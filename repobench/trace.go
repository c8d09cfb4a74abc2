package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
)

// span is one timed call into a layer's public function. Spans of one
// simulation or request share its job key, which links a service
// request to the store read and the simulation it caused.
type span struct {
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the pass ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	self  map[string]float64 // layer -> self seconds, filled by the workload
}

func newTracer() *tracer { return &tracer{t0: time.Now(), self: map[string]float64{}} }

// add records a finished span. A nil tracer records nothing, so
// untraced code paths can share the timing code.
func (t *tracer) add(name, key string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Key: key,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
}

// write saves the spans, the layer self times and the per-layer metrics
// under .bench_build/trace and reports the self times.
func (t *tracer) write(r *runner) error {
	for _, layer := range layers {
		note("self %-13s %9.4f s", layer, t.self[layer])
	}
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Metrics  map[string]metric  `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{r.workload, r.seed, t.self, r.metrics, t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	note("spans written to %s (%d spans)", path, len(t.spans))
	return os.WriteFile(path, data, 0o644)
}

// layers are the repository's modules as the traced pass splits them.
// sim_network is (*sim.Scheduler).RunUntil: the event kernel and the
// node/network handlers it dispatches cannot be split from outside it.
var layers = []string{"service", "store", "core_engine", "core_guard", "core_build", "sim_network", "core_collect"}

// setSelf reports every layer's self time as a per-layer metric.
func (r *runner) setSelf() {
	for _, layer := range layers {
		r.set("trace.self_s."+layer, r.tr.self[layer], "s")
	}
}

// queueStep is the simulated-time spacing of the queue-depth samples.
const queueStep = sim.Nanosecond

// probe is what one simulation driven through probeRun measured. The
// counts are exact: they depend only on the inputs.
type probe struct {
	events, windowEvents          int64
	queueSum, queueSamples, qPeak int64
	traversals, throttles, flits  int64
	packets, d2dPackets, d2dHops  int64
	build, runUntil, collect      time.Duration
	result                        core.RunResult
}

func (p *probe) add(q probe) {
	p.events += q.events
	p.windowEvents += q.windowEvents
	p.queueSum += q.queueSum
	p.queueSamples += q.queueSamples
	if q.qPeak > p.qPeak {
		p.qPeak = q.qPeak
	}
	p.traversals += q.traversals
	p.throttles += q.throttles
	p.flits += q.flits
	p.packets += q.packets
	p.d2dPackets += q.d2dPackets
	p.d2dHops += q.d2dHops
	p.build += q.build
	p.runUntil += q.runUntil
	p.collect += q.collect
}

// probeRun executes one simulation through core.Build,
// (*sim.Scheduler).RunUntil and core.Collect, timing each call. With
// sample set, RunUntil advances in queueStep steps: the queue length is
// sampled at every step and the dispatched-event count is read at the
// measurement-window edges. Stepping dispatches the same events in the
// same order as one RunUntil, so the result is unchanged.
func probeRun(tr *tracer, spec network.Spec, cfg core.RunConfig, sample bool) (probe, error) {
	var p probe
	key := ""
	if tr != nil {
		key = core.JobKey(spec, cfg)
	}
	windowEnd := cfg.Warmup + cfg.Measure
	total := windowEnd + cfg.Drain
	if sample && (cfg.Warmup%queueStep != 0 || windowEnd%queueStep != 0 || total%queueStep != 0) {
		return p, fmt.Errorf("probe: windows of %s are not multiples of %v", spec.Name, queueStep)
	}
	start := time.Now()
	nw, err := core.Build(spec, cfg)
	end := time.Now()
	tr.add("core.Build", key, start, end)
	p.build = end.Sub(start)
	if err != nil {
		return p, err
	}
	if nw.Group() != nil {
		return p, fmt.Errorf("probe: %s built sharded; the benchmark runs serially", spec.Name)
	}
	sched := nw.Sched
	start = time.Now()
	if sample {
		var atWarm, atEnd uint64
		for t := queueStep; t <= total; t += queueStep {
			sched.RunUntil(t)
			n := int64(sched.Len())
			p.queueSum += n
			p.queueSamples++
			if n > p.qPeak {
				p.qPeak = n
			}
			switch t {
			case cfg.Warmup:
				atWarm = sched.Executed()
			case windowEnd:
				atEnd = sched.Executed()
			}
		}
		p.windowEvents = int64(atEnd - atWarm)
	} else {
		sched.RunUntil(total)
	}
	end = time.Now()
	tr.add("sim.Scheduler.RunUntil", key, start, end)
	p.runUntil = end.Sub(start)
	p.events = int64(sched.Executed())

	start = time.Now()
	p.result = core.Collect(nw, cfg)
	end = time.Now()
	tr.add("core.Collect", key, start, end)
	p.collect = end.Sub(start)
	for i := range p.result.ForwardsPerLevel {
		p.traversals += p.result.ForwardsPerLevel[i] + p.result.ThrottlesPerLevel[i]
		p.throttles += p.result.ThrottlesPerLevel[i]
	}
	p.packets = int64(p.result.MeasuredPackets)
	p.d2dPackets = int64(p.result.D2DMeasuredPackets)
	p.d2dHops = p.result.D2DFlitHops
	// Flits delivered in the window, recovered from the accepted
	// throughput (delivered flits / window ns / sources).
	p.flits = int64(math.Round(p.result.ThroughputGFs * cfg.Measure.Nanoseconds() * float64(spec.Terminals())))
	return p, nil
}

// probeRunner returns a remote runner that executes every job through
// probeRun under a semaphore of the engine's pool size. An engine that
// delegates to it schedules jobs as its local pool would (claim, store
// read-through, one slot per simulation), while each simulation is
// split into Build, RunUntil and Collect spans. Read totals only once
// every call has returned.
func probeRunner(tr *tracer, workers int, totals *probe) core.RemoteRunner {
	sem := make(chan struct{}, workers)
	var mu sync.Mutex
	return func(ctx context.Context, spec network.Spec, cfg core.RunConfig) (core.RunResult, error) {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return core.RunResult{}, ctx.Err()
		}
		defer func() { <-sem }()
		p, err := probeRun(tr, spec, cfg, true)
		if err != nil {
			return core.RunResult{}, err
		}
		mu.Lock()
		totals.add(p)
		mu.Unlock()
		return p.result, nil
	}
}

// setProbeMetrics reports the sim and node/network layer metrics of the
// simulations a traced pass drove through probeRun.
func (r *runner) setProbeMetrics(p probe) {
	r.set("sim.events", float64(p.events), "count")
	r.set("sim.ns_per_event", ratio(float64(p.runUntil.Nanoseconds()), float64(p.events)), "ns")
	r.set("sim.queue_mean", ratio(float64(p.queueSum), float64(p.queueSamples)), "count")
	r.set("sim.queue_peak", float64(p.qPeak), "count")
	r.set("network.events_per_traversal", ratio(float64(p.windowEvents), float64(p.traversals)), "ratio")
	r.set("network.events_per_flit", ratio(float64(p.windowEvents), float64(p.flits)), "ratio")
	r.set("routing.redundant_fraction", ratio(float64(p.throttles), float64(p.traversals)), "ratio")
	r.set("chiplet.d2d_packet_share", ratio(float64(p.d2dPackets), float64(p.packets)), "ratio")
	r.set("chiplet.d2d_flit_hops", float64(p.d2dHops), "count")
	r.set("core.build_s", p.build.Seconds(), "s")
	r.set("core.run_until_s", p.runUntil.Seconds(), "s")
	r.set("core.collect_s", p.collect.Seconds(), "s")
}

// checkProbeCounts compares a probe's exact counters with the reference.
func (r *runner) checkProbeCounts(p probe) bool {
	ok := r.checkCount("sim.events", p.events)
	ok = r.checkCount("network.window_events", p.windowEvents) && ok
	ok = r.checkCount("sim.queue_sum", p.queueSum) && ok
	ok = r.checkCount("sim.queue_samples", p.queueSamples) && ok
	ok = r.checkCount("sim.queue_peak", p.qPeak) && ok
	ok = r.checkCount("network.traversals", p.traversals) && ok
	ok = r.checkCount("routing.throttles", p.throttles) && ok
	ok = r.checkCount("chiplet.d2d_packets", p.d2dPackets) && ok
	ok = r.checkCount("chiplet.d2d_flit_hops", p.d2dHops) && ok
	return r.checkCount("network.flits", p.flits) && ok
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler tracks the peak live heap: the largest heap a GC cycle
// found reachable (runtime/metrics /gc/heap/live:bytes, read every
// 2 ms without stopping the world). Heap in use would add the garbage
// awaiting collection, whose amount depends on GC pacing and, with two
// workers, on timing.
type heapSampler struct {
	mu      sync.Mutex
	peak    uint64
	samples []metrics.Sample
	done    chan struct{}
	wg      sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		done:    make(chan struct{}),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// reset starts a new peak window.
func (h *heapSampler) reset() {
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
}

// peakMB returns the peak live heap since the last reset, in MiB.
func (h *heapSampler) peakMB() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}
