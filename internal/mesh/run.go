package mesh

import (
	"context"
	"fmt"

	"asyncnoc/internal/core"
)

// rig describes the mesh to the shared run harness.
func (m *Mesh) rig() core.Rig {
	return core.Rig{
		Fabric: m, Name: m.Spec.Name, Terminals: m.Spec.Tiles(),
		PacketLen: m.Spec.PacketLen, Rec: m.Rec, Meter: m.Meter,
	}
}

// Build constructs a mesh with the harness's injection processes armed
// and measurement windows set, but does not run it (the mesh
// counterpart of core.Build). The benchmark's destination space must
// equal the tile count.
func Build(spec Spec, cfg core.RunConfig) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Instruments) > 0 {
		// Instruments attach to MoT networks (network.Network); the mesh
		// has no equivalent observer surface yet.
		return nil, fmt.Errorf("mesh %s: RunConfig.Instruments is not supported on the mesh topology", spec.Name)
	}
	m, err := New(spec)
	if err != nil {
		return nil, err
	}
	core.Arm(m.rig(), cfg)
	return m, nil
}

// Run executes one mesh simulation through the MoT's run harness
// (core.RunConfig): open-loop Poisson injection at every tile, the
// warmup/measurement/drain windows, the watchdog's MaxEvents budget and
// deadlock check, and the same RunResult. Protocol violations inside
// the router model surface as *core.ProtocolError.
func Run(spec Spec, cfg core.RunConfig) (res core.RunResult, err error) {
	defer core.RecoverViolations(spec.Name, &err)
	m, err := Build(spec, cfg)
	if err != nil {
		return core.RunResult{}, err
	}
	return core.Drive(context.Background(), m.rig(), cfg)
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
