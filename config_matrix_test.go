package asyncnoc_test

import (
	"errors"
	"fmt"
	"testing"

	"asyncnoc"
	"asyncnoc/internal/cliflags"
)

// The configuration space the CLIs and the library accept: every
// topology kind x radix x architecture x routing strategy x fault
// setting must either be rejected before the first event (a spec or
// RunConfig validation error, or a benchmark that cannot address the
// topology) or run to quiescence with its flits conserved. A protocol
// violation or a panic mid-run is always a bug.

// matrixCfg is a short, lightly loaded run: every case completes well
// below saturation.
func matrixCfg(bench asyncnoc.Benchmark) asyncnoc.RunConfig {
	return asyncnoc.RunConfig{
		Bench:   bench,
		LoadGFs: 0.1,
		Seed:    2016,
		Warmup:  20 * asyncnoc.Nanosecond,
		Measure: 100 * asyncnoc.Nanosecond,
		Drain:   200 * asyncnoc.Nanosecond,
	}
}

// matrixFaults is the fault-on setting: payload corruption and body-flit
// drops recovered by end-to-end retransmission.
var matrixFaults = asyncnoc.FaultConfig{Seed: 7, CorruptRate: 1e-3, DropRate: 1e-3}

// quiesceWithin bounds the simulated time a finished run may take to
// drain its fabric and retransmission timers once injection stops.
const quiesceWithin = 20 * asyncnoc.Microsecond

// meshDims lays n tiles out as a near-square power-of-two mesh (2x1,
// 2x2, 4x2, ... 8x8), or an n x 1 line when n is not a power of two.
func meshDims(n int) (w, h int) {
	w = 1
	for w*w < n {
		w *= 2
	}
	if n%w != 0 {
		return n, 1
	}
	return w, n / w
}

func TestConfigMatrix(t *testing.T) {
	strategies := append([]string{""}, asyncnoc.StrategyNames()...)
	for _, n := range []int{2, 3, 4, 8, 16, 32, 64} {
		w, h := meshDims(n)
		for _, topo := range []string{"mot", fmt.Sprintf("mesh:%dx%d", w, h), "chiplet:2x2"} {
			sel, err := cliflags.ParseTopology(topo)
			if err != nil {
				t.Fatal(err)
			}
			terminals := n
			if sel.Kind == "chiplet" {
				terminals = n * sel.W * sel.H
			}
			n := n
			t.Run(fmt.Sprintf("%s/n=%d", topo, n), func(t *testing.T) {
				if terminals >= 64 && testing.Short() {
					t.Skip("large configuration")
				}
				t.Parallel()
				bench, benchErr := sel.Bench(n, "Multicast10")
				ran := 0
				if sel.Kind == "mesh" {
					for _, strat := range strategies {
						spec := sel.MeshSpec()
						spec.Strategy = strat
						if checkMeshCase(t, spec, bench, benchErr) {
							ran++
						}
					}
				} else {
					for _, arch := range asyncnoc.AllNetworks(n) {
						for _, strat := range strategies {
							spec := sel.Compose(arch)
							if strat != "" {
								spec = asyncnoc.WithStrategy(spec, strat)
							}
							for _, faults := range []asyncnoc.FaultConfig{{}, matrixFaults} {
								spec.Faults = faults
								if checkMoTCase(t, spec, bench, benchErr) {
									ran++
								}
							}
						}
					}
				}
				// Every power-of-two radix has runnable configurations;
				// a matrix that rejects them all checks nothing.
				if ran == 0 && n&(n-1) == 0 {
					t.Error("every configuration was rejected")
				}
			})
		}
	}
}

// checkMoTCase builds one single-die or chiplet configuration and, if
// it is accepted, runs it to quiescence and checks conservation: every
// flit owed to a destination arrived exactly once (fault-free), or every
// measured packet either completed or was written off (faults on). It
// reports whether the configuration was accepted and run.
func checkMoTCase(t *testing.T, spec asyncnoc.NetworkSpec, bench asyncnoc.Benchmark, benchErr error) (ran bool) {
	t.Helper()
	name := spec.Name
	if spec.Faults.Enabled() {
		name += "+faults"
	}
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", name, r)
		}
	}()
	if benchErr != nil {
		return false // rejected before the network exists
	}
	cfg := matrixCfg(bench)
	nw, err := asyncnoc.Build(spec, cfg)
	if err != nil {
		return false // rejected by validation or construction; Build runs no event
	}
	var owed, delivered int
	nw.Trace = func(ev asyncnoc.TraceEvent) {
		switch ev.Kind {
		case asyncnoc.TraceInject:
			owed += ev.Flit.Pkt.Dests.Count() * ev.Flit.Pkt.Length
		case asyncnoc.TraceDeliver:
			delivered++
		}
	}
	end := cfg.Warmup + cfg.Measure + cfg.Drain
	nw.Sched.RunUntil(end) // injection stops here
	nw.Sched.RunUntil(end + quiesceWithin)
	if nw.Sched.Len() != 0 {
		t.Errorf("%s: %d events still pending %v after injection stopped", name, nw.Sched.Len(), quiesceWithin)
		return true
	}
	if stuck := nw.StuckFlits(); len(stuck) > 0 {
		t.Errorf("%s: quiesced with %d flits held, first %+v", name, len(stuck), stuck[0])
		return true
	}
	res := asyncnoc.Collect(nw, cfg)
	if res.MeasuredPackets == 0 {
		t.Errorf("%s: no packets measured", name)
	}
	if spec.Faults.Enabled() {
		if done, lost := nw.Rec.MeasuredCompleted(), nw.Rec.MeasuredLost(); done+lost != res.MeasuredPackets {
			t.Errorf("%s: %d measured packets, %d completed + %d lost", name, res.MeasuredPackets, done, lost)
		}
		return true
	}
	if delivered != owed || res.Completion != 1 {
		t.Errorf("%s: delivered %d of %d owed flits, completion %v", name, delivered, owed, res.Completion)
	}
	return true
}

// checkMeshCase runs one mesh configuration through the public runner:
// it must be rejected by validation or complete every measured packet.
// It reports whether the configuration was accepted and run.
func checkMeshCase(t *testing.T, spec asyncnoc.MeshSpec, bench asyncnoc.Benchmark, benchErr error) (ran bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s/%s: panic: %v", spec.Name, spec.Strategy, r)
		}
	}()
	if benchErr != nil {
		return false
	}
	cfg := matrixCfg(bench)
	// The mesh runner stops when injection does, so measured packets
	// need a drain long enough for the serial 64-tile expansions.
	cfg.Drain = 2 * asyncnoc.Microsecond
	res, err := asyncnoc.RunMesh(spec, cfg)
	if err != nil {
		var cerr *asyncnoc.ConfigError
		if !errors.As(err, &cerr) && spec.Validate() == nil {
			t.Errorf("%s/%s: failed after validation passed: %v", spec.Name, spec.Strategy, err)
		}
		return false
	}
	if res.MeasuredPackets == 0 || res.Completion != 1 {
		t.Errorf("%s/%s: %d measured packets, completion %v", spec.Name, spec.Strategy, res.MeasuredPackets, res.Completion)
	}
	return true
}
