package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// sweepWorkers is the engine pool size of paper-sweep. It is fixed, not
// GOMAXPROCS, so the workload stays the same on a machine with more CPUs.
const sweepWorkers = 2

// sweepPair is one Table 1 cell: a network under a benchmark.
type sweepPair struct {
	spec  network.Spec
	bench traffic.Benchmark
}

func sweepPairs() []sweepPair {
	var pairs []sweepPair
	for _, spec := range []network.Spec{core.Baseline(8), core.BasicNonSpeculative(8), core.OptHybridSpeculative(8)} {
		for _, bench := range []traffic.Benchmark{traffic.UniformRandom{N: 8}, traffic.Multicast{N: 8, Frac: 0.10}} {
			pairs = append(pairs, sweepPair{spec, bench})
		}
	}
	return pairs
}

// satConfig is the quick suite's saturation search (cmd/experiments
// -quick) at the slot's seed.
func satConfig(p sweepPair, slot int) core.SatConfig {
	return core.SatConfig{
		Base: core.RunConfig{Bench: p.bench, Seed: simSeed(slot),
			Warmup: 120 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond},
		Iters: 7,
	}
}

// latencyFractions are the latency points, as shares of each pair's
// saturation load.
var latencyFractions = []float64{0.25, 0.50, 0.75}

type sweepOut struct {
	sats []core.SatResult
	lats []core.RunResult
}

// runSweep runs the six saturation searches concurrently, as the
// experiment suite prefetches them, then every latency point as one
// RunJobs batch. tr, when non-nil, records a span per engine call.
func runSweep(eng *core.Engine, slot int, tr *tracer) (sweepOut, error) {
	pairs := sweepPairs()
	out := sweepOut{sats: make([]core.SatResult, len(pairs))}
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for i, p := range pairs {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			out.sats[i], errs[i] = eng.Saturation(p.spec, satConfig(p, slot))
			tr.add("core.Engine.Saturation", p.spec.Name+"/"+p.bench.Name(), start, time.Now())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	var jobs []core.Job
	for i, p := range pairs {
		for _, f := range latencyFractions {
			jobs = append(jobs, core.Job{Spec: p.spec, Cfg: core.RunConfig{
				Bench: p.bench, Seed: simSeed(slot), LoadGFs: f * out.sats[i].SatLoadGFs,
				Warmup: 200 * sim.Nanosecond, Measure: 1200 * sim.Nanosecond, Drain: 500 * sim.Nanosecond,
			}})
		}
	}
	start := time.Now()
	lats, err := eng.RunJobs(jobs)
	tr.add("core.Engine.RunJobs", "", start, time.Now())
	out.lats = lats
	return out, err
}

// quiesce waits until every simulation the engine claimed, speculative
// ones included, has finished, and returns the final snapshot. The
// sweep returns once its demanded results are in; speculative
// bisection probes may still be running, and the simulation and memo
// counts are exact only once they are done.
func quiesce(eng *core.Engine) (core.EngineSnapshot, error) {
	deadline := time.Now().Add(time.Minute)
	var last core.EngineSnapshot
	stable := 0
	for stable < 5 {
		if time.Now().After(deadline) {
			return last, fmt.Errorf("engine did not quiesce: %+v", last)
		}
		time.Sleep(2 * time.Millisecond)
		s := eng.Snapshot()
		if s.Completed+s.RemoteRuns == s.Misses && s == last {
			stable++
		} else {
			stable = 0
		}
		last = s
	}
	return last, nil
}

// checkSweep checks every saturation result and latency point against
// the reference, and the engine's exact work counts.
func (r *runner) checkSweep(out sweepOut, snap core.EngineSnapshot) bool {
	ok := true
	for i, p := range sweepPairs() {
		ok = r.checkOutput(fmt.Sprintf("sat/%s/%s", p.spec.Name, p.bench.Name()), out.sats[i]) && ok
		for j, f := range latencyFractions {
			ok = r.checkOutput(fmt.Sprintf("lat/%s/%s/%g", p.spec.Name, p.bench.Name(), f), out.lats[i*len(latencyFractions)+j]) && ok
		}
	}
	ok = r.checkCount("engine.sims", int64(snap.Started+snap.RemoteRuns)) && ok
	return r.checkCount("engine.memo_hits", int64(snap.Hits)) && ok
}

// measureSweep repeats the sweep on a fresh engine for the budget.
// setup_s is engine construction.
func measureSweep(r *runner) error {
	setup, err := timeSetup(31, 1000, func() error { core.NewEngine(sweepWorkers); return nil })
	if err != nil {
		return err
	}
	var sweeps, rates, peaks []float64
	for r.more(len(sweeps), time.Duration(median(sweeps)*float64(time.Second))) {
		runtime.GC()
		r.heap.reset()
		eng := core.NewEngine(sweepWorkers)
		start := time.Now()
		out, err := runSweep(eng, r.slot, nil)
		d := time.Since(start).Seconds()
		if err != nil {
			return err
		}
		snap, err := quiesce(eng)
		if err != nil {
			return err
		}
		peaks = append(peaks, r.heap.peakMB())
		r.attempted++
		if !r.checkSweep(out, snap) {
			r.failed++
		}
		sweeps = append(sweeps, d)
		rates = append(rates, float64(snap.Started)/d)
		note("sweep %d: %.4f s, %d simulations, %d memo hits", len(sweeps), d, snap.Started, snap.Hits)
	}
	r.set("setup_s", setup, "s")
	r.set("op_p50_ms", median(sweeps)*1000, "ms")
	r.set("ops_per_s", median(rates), "1/s")
	r.set("peak_heap_mb", median(peaks), "MB")
	note("sweep_s p50=%.4f over %d sweeps; %.1f simulations/s; setup (engine) %.3g s", median(sweeps), len(sweeps), median(rates), setup)
	return nil
}

// traceSweep runs the sweep twice. The first run samples
// Engine.Snapshot for the pool's busy share and replays each search
// serially on the warm memo, which counts the probes a search without
// speculation needs. The second delegates every simulation to
// probeRunner, splitting it into core.Build, RunUntil and core.Collect;
// core_engine is the rest of the pool's capacity (workers x wall time):
// scheduling, memo, speculation waits and idle slots.
func traceSweep(r *runner) error {
	if err := r.ladder(); err != nil {
		return err
	}
	runtime.GC()
	eng := core.NewEngine(sweepWorkers)
	var busy []float64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				busy = append(busy, float64(eng.Snapshot().InFlight())/sweepWorkers)
			}
		}
	}()
	start := time.Now()
	out, err := runSweep(eng, r.slot, r.tr)
	plain := time.Since(start)
	close(stop)
	<-sampled
	if err != nil {
		return err
	}
	snap, err := quiesce(eng)
	if err != nil {
		return err
	}
	ok := r.checkSweep(out, snap)
	probes := 0
	for _, p := range sweepPairs() {
		cfg := satConfig(p, r.slot)
		spec := p.spec
		if _, err := core.SaturationWith(spec.Name, cfg, func(load float64) (core.RunResult, error) {
			probes++
			c := cfg.Base
			c.LoadGFs = load
			return eng.Run(spec, c)
		}); err != nil {
			return err
		}
	}

	runtime.GC()
	probed := core.NewEngine(sweepWorkers)
	var totals probe
	probed.SetRemote(probeRunner(r.tr, sweepWorkers, &totals))
	start = time.Now()
	out, err = runSweep(probed, r.slot, nil)
	traced := time.Since(start)
	if err != nil {
		return err
	}
	psnap, err := quiesce(probed)
	if err != nil {
		return err
	}
	ok = r.checkSweep(out, psnap) && r.checkProbeCounts(totals) && ok
	r.attempted++
	if !ok {
		r.failed++
	}

	sims := float64(snap.Started)
	r.set("engine.sims", sims, "count")
	r.set("engine.memo_hits", float64(snap.Hits), "count")
	r.set("engine.busy_frac", mean(busy), "ratio")
	r.set("engine.sat_useful_frac", ratio(float64(probes), sims), "ratio")
	r.setProbeMetrics(totals)
	capacity := sweepWorkers * traced
	r.tr.self["core_build"] = totals.build.Seconds()
	r.tr.self["sim_network"] = totals.runUntil.Seconds()
	r.tr.self["core_collect"] = totals.collect.Seconds()
	r.tr.self["core_engine"] = (capacity - totals.build - totals.runUntil - totals.collect).Seconds()
	r.set("trace.overhead_frac", ratio((traced-plain).Seconds(), plain.Seconds()), "ratio")
	r.set("trace.sim_network_share", ratio(totals.runUntil.Seconds(), capacity.Seconds()), "ratio")
	r.setSelf()
	note("sweep_s %.4f untraced, %.4f traced: %d simulations, %d memo hits, busy %.3f, %d serial probes",
		plain.Seconds(), traced.Seconds(), snap.Started, snap.Hits, mean(busy), probes)
	return nil
}
