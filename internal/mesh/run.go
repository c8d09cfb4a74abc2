package mesh

import (
	"fmt"

	"asyncnoc/internal/core"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// Run executes one mesh simulation under the same configuration contract
// as the MoT harness (core.RunConfig): open-loop Poisson injection at
// every tile, warmup/measurement/drain windows, and the same RunResult.
// The benchmark's destination space must equal the tile count. Protocol
// violations inside the router model surface as *core.ProtocolError.
func Run(spec Spec, cfg core.RunConfig) (res core.RunResult, err error) {
	defer core.RecoverViolations(spec.Name, &err)
	if err := cfg.Validate(); err != nil {
		return core.RunResult{}, err
	}
	if len(cfg.Instruments) > 0 {
		// Instruments attach to MoT networks (network.Network); the mesh
		// has no equivalent observer surface yet.
		return core.RunResult{}, fmt.Errorf("mesh %s: RunConfig.Instruments is not supported on the mesh topology", spec.Name)
	}
	m, err := New(spec)
	if err != nil {
		return core.RunResult{}, err
	}
	windowEnd := sim.AddSat(cfg.Warmup, cfg.Measure)
	m.Rec.SetWindow(cfg.Warmup, windowEnd)
	m.Meter.SetWindow(cfg.Warmup, windowEnd)
	injectUntil := sim.AddSat(windowEnd, cfg.Drain)
	meanGapPs := float64(spec.PacketLen) / cfg.LoadGFs * 1000
	root := rng.New(cfg.Seed)
	for t := 0; t < spec.Tiles(); t++ {
		inj := &injector{
			mesh: m, bench: cfg.Bench, tile: t, r: root.Split(),
			meanGapPs: meanGapPs, injectUntil: injectUntil,
		}
		m.Sched.In(gap(inj.r, meanGapPs), inj, 0)
	}
	m.Sched.RunUntil(injectUntil)

	res = core.RunResult{
		Network:         spec.Name,
		Benchmark:       cfg.Bench.Name(),
		LoadGFs:         cfg.LoadGFs,
		ThroughputGFs:   m.Rec.ThroughputGFs(spec.Tiles()),
		PowerMW:         m.Meter.PowerMW(),
		Completion:      m.Rec.CompletionRate(),
		MeasuredPackets: m.Rec.MeasuredCreated(),
	}
	if sum := m.Rec.LatencySummary(); sum.Count() > 0 {
		res.AvgLatencyNs = sum.Mean()
		res.P50LatencyNs = sum.P50()
		res.P95LatencyNs = sum.P95()
		res.P99LatencyNs = sum.P99()
	}
	res.LostMeasuredPackets = m.Rec.MeasuredLost()
	return res, nil
}

// gap draws an exponential inter-arrival of at least 1 ps.
func gap(r *rng.Source, meanPs float64) sim.Time {
	g := sim.Time(r.Exp(meanPs))
	if g < 1 {
		g = 1
	}
	return g
}

// injector drives one tile's open-loop Poisson process (see the MoT
// harness's counterpart in internal/core).
type injector struct {
	mesh        *Mesh
	bench       traffic.Benchmark
	tile        int
	r           *rng.Source
	meanGapPs   float64
	injectUntil sim.Time
}

// OnEvent implements sim.Handler.
func (in *injector) OnEvent(int64) {
	if in.mesh.Sched.Now() >= in.injectUntil {
		return
	}
	if _, err := in.mesh.Inject(in.tile, in.bench.NextDests(in.tile, in.r)); err != nil {
		panic(fault.Violationf(fmt.Sprintf("mesh benchmark %s", in.bench.Name()), "%v", err))
	}
	in.mesh.Sched.In(gap(in.r, in.meanGapPs), in, 0)
}

// Saturation searches for the mesh's saturation throughput under the
// same criterion as the MoT harness.
func Saturation(spec Spec, cfg core.SatConfig) (core.SatResult, error) {
	return core.SaturationWith(spec.Name, cfg, func(load float64) (core.RunResult, error) {
		c := cfg.Base
		c.LoadGFs = load
		return Run(spec, c)
	})
}
