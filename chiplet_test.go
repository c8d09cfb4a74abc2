// Chiplet-composition locks: the hierarchical topology layer must (a)
// deliver every injected packet under all five routing strategies, (b)
// trace die-to-die traffic reproducibly under every strategy, and (c)
// hold a golden table for the reference 2x2-of-4x4 composition. A
// larger 8x8-of-8x8 system (4096 terminals) runs under ASYNCNOC_SCALE=1
// (see `make chiplet-scale`).
package asyncnoc_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"asyncnoc"
)

// chipletSpec composes the named architecture into a w x h mesh of
// radix-n MoT dies with the default serialized interposer.
func chipletSpec(t *testing.T, arch string, n, w, h int) asyncnoc.NetworkSpec {
	t.Helper()
	spec, err := asyncnoc.NetworkByName(n, arch)
	if err != nil {
		t.Fatal(err)
	}
	return asyncnoc.WithChiplet(spec, asyncnoc.ChipletSerial(w, h))
}

func chipletCfg(t *testing.T, spec asyncnoc.NetworkSpec) asyncnoc.RunConfig {
	t.Helper()
	bench, err := asyncnoc.ChipletBenchmarkByName(spec.Chiplet, spec.N, "Multicast10")
	if err != nil {
		t.Fatal(err)
	}
	return asyncnoc.RunConfig{
		Bench:   bench,
		LoadGFs: 0.3,
		Seed:    2016,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   600 * asyncnoc.Nanosecond,
	}
}

// chipletLine renders the golden-lock string: the flat measurements plus
// the per-hierarchy-level breakout (intra-die vs die-to-die).
func chipletLine(res asyncnoc.RunResult) string {
	return fmt.Sprintf("lat=%.4f thr=%.4f pwr=%.4f compl=%.4f n=%d d2dn=%d d2dlat=%.4f intralat=%.4f d2dthr=%.4f d2dpwr=%.4f d2dhops=%d",
		res.AvgLatencyNs, res.ThroughputGFs, res.PowerMW, res.Completion, res.MeasuredPackets,
		res.D2DMeasuredPackets, res.AvgD2DLatencyNs, res.AvgIntraLatencyNs,
		res.D2DThroughputGFs, res.D2DPowerMW, res.D2DFlitHops)
}

// TestChipletGolden2x2of4x4 locks the reference composition: four 4x4
// MoT dies on a 2x2 interposer, all six architectures.
func TestChipletGolden2x2of4x4(t *testing.T) {
	want := map[string]string{
		"Baseline@2x2of4":               "lat=5.1731 thr=0.4329 pwr=30.4430 compl=1.0000 n=316 d2dn=231 d2dlat=6.0094 intralat=2.9003 d2dthr=0.3242 d2dpwr=6.4687 d2dhops=1565",
		"BasicNonSpeculative@2x2of4":    "lat=4.1221 thr=0.4329 pwr=30.0607 compl=1.0000 n=316 d2dn=231 d2dlat=4.8847 intralat=2.0497 d2dthr=0.3242 d2dpwr=6.4687 d2dhops=1565",
		"BasicHybridSpeculative@2x2of4": "lat=3.6720 thr=0.4327 pwr=32.3056 compl=1.0000 n=316 d2dn=231 d2dlat=4.4393 intralat=1.5866 d2dthr=0.3242 d2dpwr=6.4687 d2dhops=1565",
		"OptHybridSpeculative@2x2of4":   "lat=3.5484 thr=0.4325 pwr=30.9134 compl=1.0000 n=316 d2dn=231 d2dlat=4.3310 intralat=1.4216 d2dthr=0.3240 d2dpwr=6.4687 d2dhops=1565",
		"OptNonSpeculative@2x2of4":      "lat=3.7518 thr=0.4325 pwr=29.1380 compl=1.0000 n=316 d2dn=231 d2dlat=4.5340 intralat=1.6260 d2dthr=0.3240 d2dpwr=6.4687 d2dhops=1565",
		"OptAllSpeculative@2x2of4":      "lat=3.5484 thr=0.4325 pwr=30.9134 compl=1.0000 n=316 d2dn=231 d2dlat=4.3310 intralat=1.4216 d2dthr=0.3240 d2dpwr=6.4687 d2dhops=1565",
	}
	for _, base := range asyncnoc.AllNetworks(4) {
		spec := asyncnoc.WithChiplet(base, asyncnoc.ChipletSerial(2, 2))
		res, err := asyncnoc.Run(spec, chipletCfg(t, spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Completion != 1 {
			t.Errorf("%s: completion %.4f, want 1.0", spec.Name, res.Completion)
		}
		if res.D2DMeasuredPackets == 0 || res.D2DFlitHops == 0 {
			t.Errorf("%s: no D2D activity recorded (%d packets, %d flit-hops)",
				spec.Name, res.D2DMeasuredPackets, res.D2DFlitHops)
		}
		got := chipletLine(res)
		if want[spec.Name] == "" {
			t.Logf("GOLDEN %s: %s", spec.Name, got)
			continue
		}
		if got != want[spec.Name] {
			t.Errorf("%s drifted:\n got  %s\n want %s", spec.Name, got, want[spec.Name])
		}
	}
}

// chipletTracedRun executes one instrumented composed run and returns
// the result plus the full JSONL trace.
func chipletTracedRun(t *testing.T, spec asyncnoc.NetworkSpec) (asyncnoc.RunResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg := chipletCfg(t, spec)
	cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &buf}}
	res, err := asyncnoc.Run(spec, cfg)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res, buf.Bytes()
}

// TestChipletShardDeterminism runs the 2x2 (reference golden geometry)
// and 2x4 (eight dies) compositions traced under the default scheme and
// all five routing strategies, twice each: every run must emit a trace
// and measure die-to-die packets, and the repeat must give a result and
// JSONL trace byte-identical to the first run. The name is kept from
// when the repeat ran on a sharded kernel; runs are serial now.
func TestChipletShardDeterminism(t *testing.T) {
	for _, c := range []struct{ w, h int }{{2, 2}, {2, 4}} {
		base := chipletSpec(t, "OptHybridSpeculative", 4, c.w, c.h)
		specs := []asyncnoc.NetworkSpec{base}
		for _, strat := range asyncnoc.StrategyNames() {
			specs = append(specs, asyncnoc.WithStrategy(base, strat))
		}
		for _, spec := range specs {
			spec := spec
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				wantRes, wantTrace := chipletTracedRun(t, spec)
				if len(wantTrace) == 0 {
					t.Fatal("empty trace")
				}
				if wantRes.D2DMeasuredPackets == 0 {
					t.Error("no D2D packets measured")
				}
				gotRes, gotTrace := chipletTracedRun(t, spec)
				if gotRes != wantRes {
					t.Errorf("repeated run diverged:\n got %+v\nwant %+v", gotRes, wantRes)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("repeated run's trace differs (%d vs %d bytes): %s",
						len(gotTrace), len(wantTrace), firstTraceDiff(gotTrace, wantTrace))
				}
			})
		}
	}
}

// TestChipletValidation pins the composition layer's error surface.
func TestChipletValidation(t *testing.T) {
	spec := chipletSpec(t, "OptHybridSpeculative", 4, 2, 2)
	if _, err := asyncnoc.NewNetwork(spec); err != nil {
		t.Fatalf("composed build: %v", err)
	}
	nw, err := asyncnoc.NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Inject(0, asyncnoc.Dests(1)); err == nil {
		t.Error("flat Inject accepted on a chiplet composition")
	}
	if err := nw.InjectWide(0, make([]asyncnoc.DestSet, 3)); err == nil {
		t.Error("InjectWide accepted a wrong-length mask slice")
	}
	if err := nw.InjectWide(0, make([]asyncnoc.DestSet, 4)); err == nil {
		t.Error("InjectWide accepted all-empty masks")
	}

	// A flat benchmark cannot address a composition.
	cfg := chipletCfg(t, spec)
	cfg.Bench = asyncnoc.UniformRandom(4)
	if _, err := asyncnoc.Run(spec, cfg); err == nil {
		t.Error("Run accepted a flat benchmark on a chiplet composition")
	}

	// Faults are unsupported on compositions.
	faulty := spec
	faulty.Faults.CorruptRate = 1e-4
	if _, err := asyncnoc.NewNetwork(faulty); err == nil {
		t.Error("composed build accepted a fault config")
	}

	// Dies wider than the destination mask must compose, not scale up.
	big, err := asyncnoc.NetworkByName(128, "OptHybridSpeculative")
	if err != nil {
		t.Fatal(err)
	}
	if _, nerr := asyncnoc.NewNetwork(big); nerr == nil {
		t.Error("single die with radix 128 accepted (DestSet is 64-bit)")
	}
}

// TestRunTopology runs each topology kind through its public runner:
// one MoT die, a 2D mesh, and a chiplet composition.
func TestRunTopology(t *testing.T) {
	mot := asyncnoc.OptHybridSpeculative(4)
	cfg := asyncnoc.RunConfig{
		Bench:   asyncnoc.UniformRandom(4),
		LoadGFs: 0.3,
		Seed:    1,
		Warmup:  50 * asyncnoc.Nanosecond,
		Measure: 200 * asyncnoc.Nanosecond,
		Drain:   200 * asyncnoc.Nanosecond,
	}
	res, err := asyncnoc.Run(mot, cfg)
	if err != nil || res.MeasuredPackets == 0 {
		t.Fatalf("Run(MoT): %v (%d packets)", err, res.MeasuredPackets)
	}
	res, err = asyncnoc.RunMesh(asyncnoc.MeshTree(2, 2), cfg)
	if err != nil || res.MeasuredPackets == 0 {
		t.Fatalf("RunMesh: %v (%d packets)", err, res.MeasuredPackets)
	}
	composed := asyncnoc.WithChiplet(mot, asyncnoc.ChipletSerial(2, 2))
	res, err = asyncnoc.Run(composed, chipletCfg(t, composed))
	if err != nil || res.D2DMeasuredPackets == 0 {
		t.Fatalf("Run(chiplet): %v (%d D2D packets)", err, res.D2DMeasuredPackets)
	}
}

// TestChipletScale8x8of8x8 is the paper-scale deliverable: an 8x8
// interposer of 8x8 MoT dies — 4096 terminals — run end-to-end under
// all five routing strategies with per-hierarchy-level tables. Gated
// behind ASYNCNOC_SCALE=1: it simulates thousands of nodes.
func TestChipletScale8x8of8x8(t *testing.T) {
	if os.Getenv("ASYNCNOC_SCALE") == "" {
		t.Skip("set ASYNCNOC_SCALE=1 (or run `make chiplet-scale`) for the 8x8-of-8x8 system test")
	}
	base := chipletSpec(t, "OptHybridSpeculative", 8, 8, 8)
	specs := []asyncnoc.NetworkSpec{}
	for _, strat := range asyncnoc.StrategyNames() {
		specs = append(specs, asyncnoc.WithStrategy(base, strat))
	}
	t.Logf("%-42s %10s %10s %10s %10s %10s", "network", "lat(ns)", "intra(ns)", "d2d(ns)", "thr(GF/s)", "d2d(mW)")
	for _, spec := range specs {
		bench, err := asyncnoc.ChipletBenchmarkByName(spec.Chiplet, spec.N, "Multicast10")
		if err != nil {
			t.Fatal(err)
		}
		cfg := asyncnoc.RunConfig{
			Bench:   bench,
			LoadGFs: 0.2,
			Seed:    2016,
			Warmup:  50 * asyncnoc.Nanosecond,
			Measure: 150 * asyncnoc.Nanosecond,
			Drain:   600 * asyncnoc.Nanosecond,
		}
		var buf bytes.Buffer
		cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &buf}}
		ref, err := asyncnoc.Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty trace", spec.Name)
		}
		if ref.D2DMeasuredPackets == 0 {
			t.Errorf("%s: no D2D packets at 4096 terminals", spec.Name)
		}
		t.Logf("%-42s %10.2f %10.2f %10.2f %10.3f %10.2f",
			ref.Network, ref.AvgLatencyNs, ref.AvgIntraLatencyNs, ref.AvgD2DLatencyNs,
			ref.ThroughputGFs, ref.D2DPowerMW)
	}
}
