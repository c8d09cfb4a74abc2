package topology

import (
	"fmt"
	"strings"
)

// Scheme names the three speculation-placement families explored in the
// paper's architectural design space (Section 3, Figure 3).
type Scheme int

const (
	// NonSpeculative places no speculative nodes (Figure 3(a)).
	NonSpeculative Scheme = iota
	// Hybrid alternates speculative and non-speculative levels starting
	// with a speculative root; the last level is always non-speculative
	// (Figure 3(b) for 8x8, Figure 3(d) for 16x16).
	Hybrid
	// AllSpeculative makes every level speculative except the last,
	// which must stay non-speculative because the fanin network cannot
	// throttle misrouted packets (Figure 3(c)).
	AllSpeculative
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case NonSpeculative:
		return "non-speculative"
	case Hybrid:
		return "hybrid"
	case AllSpeculative:
		return "all-speculative"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Placement assigns each fanout-tree level to speculative or
// non-speculative operation. All fanout trees of a network share one
// placement (the architectures of Figure 3 are level-uniform).
type Placement struct {
	m *MoT
	// specLevel[lvl] is true when every node at that level is
	// speculative (always broadcasts, carries no address field).
	specLevel []bool
	// fieldIndex[k] is the source-route field slot of heap node k, or -1
	// for speculative nodes.
	fieldIndex []int
	fields     int
}

// NewPlacement builds a placement from an explicit per-level speculation
// vector. The vector length must equal m.Levels, and the last level must be
// non-speculative: misrouted packets must be throttled before they reach
// the fanin network, which has no throttling capability.
func NewPlacement(m *MoT, specLevel []bool) (*Placement, error) {
	if len(specLevel) != m.Levels {
		return nil, fmt.Errorf("topology: placement has %d levels, MoT has %d", len(specLevel), m.Levels)
	}
	if specLevel[m.Levels-1] {
		return nil, fmt.Errorf("topology: last fanout level must be non-speculative (fanin cannot throttle)")
	}
	p := &Placement{
		m:          m,
		specLevel:  append([]bool(nil), specLevel...),
		fieldIndex: make([]int, m.N),
	}
	p.fieldIndex[0] = -1 // heap slot 0 unused
	for k := 1; k < m.N; k++ {
		if p.specLevel[m.LevelOf(k)] {
			p.fieldIndex[k] = -1
		} else {
			p.fieldIndex[k] = p.fields
			p.fields++
		}
	}
	return p, nil
}

// ForScheme builds the placement of one of the paper's named architectures.
func ForScheme(m *MoT, s Scheme) (*Placement, error) {
	spec, err := SchemeLevels(m.Levels, s)
	if err != nil {
		return nil, err
	}
	// A 2x2 MoT has a single fanout level which must stay
	// non-speculative; ForScheme still succeeds and degenerates to the
	// non-speculative placement.
	return NewPlacement(m, spec)
}

// SchemeLevels returns the per-level speculation vector of a named
// architecture on a MoT with the given number of fanout levels.
func SchemeLevels(levels int, s Scheme) ([]bool, error) {
	spec := make([]bool, levels)
	switch s {
	case NonSpeculative:
		// all false
	case Hybrid:
		for lvl := 0; lvl < levels-1; lvl += 2 {
			spec[lvl] = true
		}
	case AllSpeculative:
		for lvl := 0; lvl < levels-1; lvl++ {
			spec[lvl] = true
		}
	default:
		return nil, fmt.Errorf("topology: unknown scheme %v", s)
	}
	return spec, nil
}

// LevelAddressBits returns the multicast source-route size in bits of a
// placement with the given speculation vector, without building it: two
// bits per addressable node, and fanout level l holds 2^l nodes.
func LevelAddressBits(specLevel []bool) int {
	bits := 0
	for lvl, spec := range specLevel {
		if !spec {
			bits += 2 << lvl
		}
	}
	return bits
}

// MustForScheme is ForScheme that panics on error.
func MustForScheme(m *MoT, s Scheme) *Placement {
	p, err := ForScheme(m, s)
	if err != nil {
		panic(err)
	}
	return p
}

// MoT returns the topology the placement applies to.
func (p *Placement) MoT() *MoT { return p.m }

// IsSpeculative reports whether heap node k always broadcasts.
func (p *Placement) IsSpeculative(k int) bool {
	return p.specLevel[p.m.LevelOf(k)]
}

// IsSpeculativeLevel reports whether a whole level is speculative.
func (p *Placement) IsSpeculativeLevel(lvl int) bool { return p.specLevel[lvl] }

// FieldIndex returns the source-route field slot of node k and true, or
// (-1, false) when k is speculative and therefore unaddressed.
func (p *Placement) FieldIndex(k int) (int, bool) {
	fi := p.fieldIndex[k]
	return fi, fi >= 0
}

// Fields returns the number of 2-bit address fields a multicast header
// carries under this placement (one per non-speculative fanout node).
func (p *Placement) Fields() int { return p.fields }

// AddressBits returns the multicast source-route size in bits: two bits
// per addressable node (Section 5.2(d)).
func (p *Placement) AddressBits() int { return 2 * p.fields }

// SpeculativeNodes returns how many nodes per fanout tree are speculative.
func (p *Placement) SpeculativeNodes() int { return p.m.NodesPerTree() - p.fields }

// String renders the per-level mix, root level first, e.g. "S|N|N".
func (p *Placement) String() string {
	parts := make([]string, len(p.specLevel))
	for i, s := range p.specLevel {
		if s {
			parts[i] = "S"
		} else {
			parts[i] = "N"
		}
	}
	return strings.Join(parts, "|")
}

// BaselineAddressBits returns the unicast source-route size of the
// baseline network: one bit per fanout level (Section 5.2(d)).
func BaselineAddressBits(m *MoT) int { return m.Levels }
