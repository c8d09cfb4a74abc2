// Package chiplet describes the hierarchical composition layer: a W x H
// network-on-interposer (NoI) mesh whose nodes are n x n MoT dies,
// connected by die-to-die (D2D) links with their own serialization,
// per-hop delay, and per-beat energy parameters. The composition keeps
// the paper's local-speculation fabric intact inside every die and adds
// a second hierarchy level on top: a packet to a remote die first
// crosses the interposer mesh (XY routed, hop by hop), then fans out
// through the target die's speculative trees exactly as an intra-die
// multicast would.
//
// The package is a leaf: it holds only the parameters, the coordinate
// arithmetic, and the hierarchical traffic generators. The network
// package owns the actual gateway processes (egress serialization,
// in-flight hop delays, ingress re-injection) so that all event
// ordering stays in one place.
package chiplet

import (
	"fmt"

	"asyncnoc/internal/sim"
)

// Default D2D link parameters. The D2D channel is modeled after the
// off-chip serial links of chiplet NoC studies (see PAPERS.md: D2D-MoT;
// SNIPPETS.md MultiChipMesh): a flit leaving a die is serialized onto a
// narrower interposer link (SerialFactor beats per flit), every beat
// costs BeatPJPerHop per mesh hop, and every hop adds HopPs of wire +
// relay latency. The defaults make a D2D hop roughly an order of
// magnitude slower and costlier than an on-die channel traversal
// (50 ps / 0.24 pJ), which is the regime the hierarchy-level tables
// are meant to expose.
const (
	// DefaultSerialFactor is the flit-width to link-width ratio of a
	// serial D2D link: beats transferred per flit.
	DefaultSerialFactor = 4
	// DefaultBeatPs is the serialization time per beat at the egress
	// gateway, in picoseconds.
	DefaultBeatPs sim.Time = 100
	// DefaultHopPs is the per-mesh-hop D2D wire + relay latency in
	// picoseconds.
	DefaultHopPs sim.Time = 150
	// DefaultBeatPJPerHop is the energy per beat per mesh hop in pJ.
	DefaultBeatPJPerHop = 0.31
)

// MaxMeshDim bounds each interposer mesh dimension; like the MoT radix
// limit it is a memory guard, not a correctness constraint.
const MaxMeshDim = 64

// Params parameterizes one mesh-of-MoT-dies composition. The zero value
// is invalid; construct with Default and override fields as needed.
type Params struct {
	// MeshW and MeshH are the interposer mesh dimensions in dies.
	MeshW, MeshH int
	// Serial selects the serial D2D link variant: each flit is
	// serialized into SerialFactor beats at the egress gateway. A
	// parallel (full flit-width) link transfers one beat per flit.
	Serial bool
	// SerialFactor is beats per flit on a serial link (>= 1; ignored
	// when Serial is false).
	SerialFactor int
	// BeatPs is the egress serialization time per beat (ps).
	BeatPs sim.Time
	// HopPs is the per-mesh-hop link latency (ps).
	HopPs sim.Time
	// BeatPJPerHop is the D2D link energy per beat per hop (pJ).
	BeatPJPerHop float64
}

// Default returns the standard serial-link composition parameters for a
// w x h interposer mesh.
func Default(w, h int) *Params {
	return &Params{
		MeshW: w, MeshH: h,
		Serial:       true,
		SerialFactor: DefaultSerialFactor,
		BeatPs:       DefaultBeatPs,
		HopPs:        DefaultHopPs,
		BeatPJPerHop: DefaultBeatPJPerHop,
	}
}

// Parallel returns the parallel-link (one beat per flit) variant.
func Parallel(w, h int) *Params {
	p := Default(w, h)
	p.Serial = false
	p.SerialFactor = 1
	return p
}

// Dies returns the die count of the composition.
func (p *Params) Dies() int { return p.MeshW * p.MeshH }

// DieCoord returns the (x, y) interposer-mesh coordinate of a die.
func (p *Params) DieCoord(die int) (x, y int) { return die % p.MeshW, die / p.MeshW }

// DieAt is the inverse of DieCoord.
func (p *Params) DieAt(x, y int) int { return y*p.MeshW + x }

// Hops returns the XY Manhattan hop count between two dies.
func (p *Params) Hops(a, b int) int {
	ax, ay := p.DieCoord(a)
	bx, by := p.DieCoord(b)
	dx, dy := bx-ax, by-ay
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// BeatsPerFlit returns how many link beats one flit occupies.
func (p *Params) BeatsPerFlit() int {
	if p.Serial {
		return p.SerialFactor
	}
	return 1
}

// FlitSerPs returns the egress serialization time of one flit.
func (p *Params) FlitSerPs() sim.Time { return sim.Time(p.BeatsPerFlit()) * p.BeatPs }

// FlitHopPJ returns the link energy of one flit crossing one hop.
func (p *Params) FlitHopPJ() float64 { return float64(p.BeatsPerFlit()) * p.BeatPJPerHop }

// Validate checks the composition against a die radix.
func (p *Params) Validate(dieN int) error {
	switch {
	case p.MeshW < 1 || p.MeshW > MaxMeshDim || p.MeshH < 1 || p.MeshH > MaxMeshDim:
		return fmt.Errorf("chiplet: mesh %dx%d outside [1,%d] per dimension", p.MeshW, p.MeshH, MaxMeshDim)
	case p.Dies() < 2:
		return fmt.Errorf("chiplet: %dx%d mesh has %d die(s); a composition needs at least 2 (use a plain single-die spec)", p.MeshW, p.MeshH, p.Dies())
	case p.Serial && p.SerialFactor < 1:
		return fmt.Errorf("chiplet: serial factor %d < 1", p.SerialFactor)
	case p.BeatPs < 1:
		return fmt.Errorf("chiplet: beat time %v < 1 ps", p.BeatPs)
	case p.HopPs < 1:
		return fmt.Errorf("chiplet: hop latency %v < 1 ps", p.HopPs)
	case p.BeatPJPerHop < 0:
		return fmt.Errorf("chiplet: negative link energy %v pJ/beat/hop", p.BeatPJPerHop)
	case dieN < 2:
		return fmt.Errorf("chiplet: die radix %d < 2", dieN)
	}
	return nil
}

// Tag renders the composition's reporting suffix, e.g. "2x2of4" for a
// 2x2 interposer mesh of 4x4 dies.
func (p *Params) Tag(dieN int) string {
	return fmt.Sprintf("%dx%dof%d", p.MeshW, p.MeshH, dieN)
}
