package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"asyncnoc"
	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// singleJob returns the one simulation a single-run workload repeats.
func singleJob(name string, slot int) (network.Spec, core.RunConfig, error) {
	cfg := core.RunConfig{
		Seed:    simSeed(slot),
		Warmup:  320 * sim.Nanosecond,
		Measure: 3200 * sim.Nanosecond,
		Drain:   800 * sim.Nanosecond,
	}
	switch name {
	case "mot32-multicast":
		// The paper's Section 5.1 windows. The queue is in steady state
		// after the warmup, so a longer window only adds events of the
		// same kind; short runs give each measured pass more samples.
		cfg.Bench, cfg.LoadGFs = traffic.Multicast{N: 32, Frac: 0.10}, 0.4
		return core.OptHybridSpeculative(32), cfg, nil
	case "chiplet-multicast":
		// Below saturation: at 0.1 GF/s the average latency is ~7.5 ns.
		p := chiplet.Default(4, 4)
		bench, err := chiplet.ByName(p, 16, "Multicast10")
		if err != nil {
			return network.Spec{}, cfg, err
		}
		cfg.Bench, cfg.LoadGFs = bench, 0.1
		return core.WithChiplet(core.OptHybridSpeculative(16), p), cfg, nil
	}
	return network.Spec{}, cfg, fmt.Errorf("no single-run job for %s", name)
}

// eventCounter reads the scheduler's dispatched-event count when the
// run finishes; it does not touch the run itself.
type eventCounter struct {
	nw     *network.Network
	events int64
}

func (c *eventCounter) Attach(nw *network.Network) error { c.nw = nw; return nil }
func (c *eventCounter) Finish() error                    { c.events = int64(c.nw.Sched.Executed()); return nil }

// checkSingle checks one single-run result: no error, every field equal
// to the reference, every measured packet delivered and none lost.
func (r *runner) checkSingle(res core.RunResult, err error) bool {
	if err != nil {
		return r.mismatch("run: %v", err)
	}
	ok := r.checkOutput("result", res)
	if res.Completion != 1 || res.LostMeasuredPackets != 0 || res.LostPackets != 0 {
		ok = r.mismatch("run: completion %v, %d measured and %d packets lost", res.Completion, res.LostMeasuredPackets, res.LostPackets)
	}
	return ok
}

// measureSingle repeats one asyncnoc.RunContext simulation for the
// budget. setup_s is core.Build, the work before the first event.
func measureSingle(r *runner) error {
	spec, cfg, err := singleJob(r.workload, r.slot)
	if err != nil {
		return err
	}
	setup, err := timeSetup(31, 1, func() error { _, err := core.Build(spec, cfg); return err })
	if err != nil {
		return err
	}
	var runs, rates, peaks []float64
	for r.more(len(runs), time.Duration(median(runs)*float64(time.Second))) {
		counter := &eventCounter{}
		c := cfg
		c.Instruments = []core.Instrument{counter}
		runtime.GC()
		r.heap.reset()
		start := time.Now()
		res, err := asyncnoc.RunContext(context.Background(), spec, c)
		d := time.Since(start).Seconds()
		peaks = append(peaks, r.heap.peakMB())
		r.attempted++
		if ok := r.checkSingle(res, err); !(r.checkCount("sim.events", counter.events) && ok) {
			r.failed++
		}
		runs = append(runs, d)
		rates = append(rates, float64(counter.events)/d)
	}
	r.set("setup_s", setup, "s")
	r.set("op_p50_ms", median(runs)*1000, "ms")
	r.set("ops_per_s", median(rates), "1/s")
	r.set("peak_heap_mb", median(peaks), "MB")
	note("run_s p50=%.4f over %d runs (min %.4f, max %.4f); %.3g events/s; setup (core.Build) %.4f s",
		median(runs), len(runs), quantile(runs, 0), quantile(runs, 1), median(rates), setup)
	return nil
}

// traceSingle splits one simulation into its layers. Each round times
// three executions of the same input: asyncnoc.RunContext; core.Build,
// one RunUntil and core.Collect untraced; and the traced probeRun.
// Rounds repeat for the budget and every figure is a median over them.
// The watchdog and recovery wrapper (core_guard) is RunContext minus
// the untraced calls; the tracing overhead is the traced calls minus
// the untraced ones.
func traceSingle(r *runner) error {
	spec, cfg, err := singleJob(r.workload, r.slot)
	if err != nil {
		return err
	}
	if err := r.ladder(); err != nil {
		return err
	}
	r.begun = time.Now()
	var whole, untraced, traced, build, runUntil, collect []float64
	var p probe
	for r.more(len(whole), time.Duration((median(whole)+median(untraced)+median(traced))*float64(time.Second))) {
		runtime.GC()
		start := time.Now()
		res, err := asyncnoc.RunContext(context.Background(), spec, cfg)
		end := time.Now()
		r.tr.add("asyncnoc.RunContext", "", start, end)
		whole = append(whole, end.Sub(start).Seconds())
		ok := r.checkSingle(res, err)

		runtime.GC()
		plain, err := probeRun(nil, spec, cfg, false)
		if err != nil {
			return err
		}
		untraced = append(untraced, (plain.build + plain.runUntil + plain.collect).Seconds())
		ok = r.checkOutput("result", plain.result) && ok

		runtime.GC()
		p, err = probeRun(r.tr, spec, cfg, true)
		if err != nil {
			return err
		}
		traced = append(traced, (p.build + p.runUntil + p.collect).Seconds())
		build = append(build, p.build.Seconds())
		runUntil = append(runUntil, p.runUntil.Seconds())
		collect = append(collect, p.collect.Seconds())
		ok = r.checkOutput("result", p.result) && r.checkProbeCounts(p) && ok
		r.attempted++
		if !ok {
			r.failed++
		}
	}

	guard := median(whole) - median(untraced)
	r.tr.self["core_build"] = median(build)
	r.tr.self["sim_network"] = median(runUntil)
	r.tr.self["core_collect"] = median(collect)
	r.tr.self["core_guard"] = guard
	r.setProbeMetrics(p)
	r.set("core.build_s", median(build), "s")
	r.set("core.run_until_s", median(runUntil), "s")
	r.set("core.collect_s", median(collect), "s")
	r.set("sim.ns_per_event", median(runUntil)*1e9/float64(p.events), "ns")
	r.set("core.guard_s", guard, "s")
	overhead := ratio(median(traced)-median(untraced), median(untraced))
	r.set("trace.overhead_frac", overhead, "ratio")
	share := ratio(median(runUntil), median(traced))
	r.set("trace.sim_network_share", share, "ratio")
	r.setSelf()
	note("run_s %.4f (p50 of %d rounds) = build %.4f + run_until %.4f + collect %.4f + guard %.4f; sim+network share %.4f; tracing overhead %+.2f%%",
		median(whole), len(whole), median(build), median(runUntil), median(collect), guard, share, 100*overhead)
	return nil
}
