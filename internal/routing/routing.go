// Package routing implements the source-routing address schemes of the
// paper (Sections 2-3 and 5.2(d)).
//
// Three schemes exist:
//
//   - Baseline unicast routing: one bit per fanout level selecting the top
//     or bottom output along the single path (3 bits for an 8x8 MoT).
//   - Parallel multicast routing: one 2-bit symbol for every addressable
//     (non-speculative) fanout node of the source's fanout tree. The
//     symbol directs the node to forward top, bottom, both, or — for nodes
//     that are not on any path to a destination — to throttle the packet.
//   - Simplified source routing: the same 2-bit layout, but speculative
//     nodes carry no field at all (they always broadcast), shrinking the
//     header: 14 -> 12 -> 8 bits across the 8x8 architectures.
//
// Routes are packed little-endian into a uint64: field i occupies bits
// [2i, 2i+2). 64 bits comfortably hold the 30-bit worst case (16x16
// non-speculative) and anything up to a 32x32 all-speculative layout; the
// encoder rejects layouts that do not fit.
//
// strategy.go layers the pluggable Strategy interface over these encoders:
// five registered multicast schemes (serial unicast, tree multicast,
// simplified speculative multicast, path-based, and Dynamic Partition
// Merging) that plan logical injections into physical packets while
// sharing the per-node decode above.
package routing

import (
	"fmt"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/topology"
)

// Symbol is the 2-bit routing directive read by a non-speculative node.
type Symbol uint8

const (
	// SymNone marks a node that is on no path to any destination: any
	// packet arriving there is redundant (a speculative copy) and is
	// throttled.
	SymNone Symbol = 0b00
	// SymTop forwards on the top output only.
	SymTop Symbol = 0b01
	// SymBottom forwards on the bottom output only.
	SymBottom Symbol = 0b10
	// SymBoth replicates the packet on both outputs.
	SymBoth Symbol = 0b11
)

// String names the symbol.
func (s Symbol) String() string {
	switch s {
	case SymNone:
		return "throttle"
	case SymTop:
		return "top"
	case SymBottom:
		return "bottom"
	case SymBoth:
		return "both"
	default:
		return fmt.Sprintf("Symbol(%d)", uint8(s))
	}
}

// Wants reports whether the symbol directs traffic through the given port.
func (s Symbol) Wants(p topology.Port) bool {
	if p == topology.Top {
		return s&SymTop != 0
	}
	return s&SymBottom != 0
}

// SymbolFor computes the directive a node must apply given which of its
// child subtrees contain destinations.
func SymbolFor(needTop, needBottom bool) Symbol {
	var s Symbol
	if needTop {
		s |= SymTop
	}
	if needBottom {
		s |= SymBottom
	}
	return s
}

// RouteWordBits is the width of the source-route word a header carries.
// A multicast placement needs two bits per addressable node, so
// network.Spec.Validate rejects placements wider than this.
const RouteWordBits = 64

// EncodeMulticast packs the 2-bit field of every addressable node of the
// fanout tree for the given destination set. Fields of nodes whose subtree
// holds no destination are SymNone, which is what makes the throttling of
// redundant speculative copies work without any extra state.
func EncodeMulticast(p *topology.Placement, dests packet.DestSet) (uint64, error) {
	m := p.MoT()
	if dests.Empty() {
		return 0, fmt.Errorf("routing: empty destination set")
	}
	if extra := dests &^ packet.Range(0, m.N); !extra.Empty() {
		return 0, fmt.Errorf("routing: destinations %v outside [0,%d)", extra, m.N)
	}
	if p.AddressBits() > RouteWordBits {
		return 0, fmt.Errorf("routing: %d address bits exceed the %d-bit route word", p.AddressBits(), RouteWordBits)
	}
	var route uint64
	for k := 1; k < m.N; k++ {
		fi, ok := p.FieldIndex(k)
		if !ok {
			continue // speculative: no field, always broadcasts
		}
		needTop := !dests.Intersect(m.SubtreeDests(m.Child(k, topology.Top))).Empty()
		needBot := !dests.Intersect(m.SubtreeDests(m.Child(k, topology.Bottom))).Empty()
		route |= uint64(SymbolFor(needTop, needBot)) << uint(2*fi)
	}
	return route, nil
}

// SymbolAt extracts the directive for the node holding field index fi.
func SymbolAt(route uint64, fi int) Symbol {
	return Symbol(route >> uint(2*fi) & 0b11)
}

// NodeSymbol returns the directive node k applies to a route: speculative
// nodes implicitly broadcast; addressable nodes read their packed field.
func NodeSymbol(p *topology.Placement, k int, route uint64) Symbol {
	fi, ok := p.FieldIndex(k)
	if !ok {
		return SymBoth
	}
	return SymbolAt(route, fi)
}

// EncodeBaseline packs the baseline unicast path: bit lvl selects the
// output of the level-lvl node on the path (0 = top, 1 = bottom). Since
// Child(k, p) = 2k+p, the port taken at each level is a bit of the
// destination leaf's heap index, read leaf to root — no materialized
// path, so the per-packet serial expansion stays allocation-free.
func EncodeBaseline(m *topology.MoT, dest int) (uint64, error) {
	if dest < 0 || dest >= m.N {
		return 0, fmt.Errorf("routing: destination %d outside [0,%d)", dest, m.N)
	}
	var route uint64
	for c, lvl := m.N+dest, m.Levels-1; lvl >= 0; lvl-- {
		route |= uint64(c&1) << uint(lvl)
		c /= 2
	}
	return route, nil
}

// BaselinePort extracts the output port the level-lvl node takes.
func BaselinePort(route uint64, lvl int) topology.Port {
	return topology.Port(route >> uint(lvl) & 1)
}

// AddressSizes reports the header address-field width in bits of each
// architecture for an n x n MoT, reproducing Section 5.2(d).
type AddressSizes struct {
	N              int
	Baseline       int // serial baseline, unicast path routing
	NonSpeculative int
	Hybrid         int
	AllSpeculative int
	// BitVector is the related-work alternative the paper's Section 1
	// cites ([5]): encode the full destination set as one bit per
	// destination and let every switch decode it. It needs n bits but
	// requires set-intersection logic at every node instead of a 2-bit
	// field read.
	BitVector int
	// PathBased and DPM are the related-work schemes the strategy layer
	// adds (arXiv:1610.00751, arXiv:2108.00566): destination-list
	// headers, so their width is per-packet entries times log2(n) bits
	// (see the strategies' HeaderBits).
	PathBased int
	DPM       int
}

// SizesFor computes the Section 5.2(d) table row for an n x n MoT.
func SizesFor(n int) (AddressSizes, error) {
	m, err := topology.New(n)
	if err != nil {
		return AddressSizes{}, err
	}
	out := AddressSizes{N: n, Baseline: topology.BaselineAddressBits(m), BitVector: n}
	for _, s := range []struct {
		scheme topology.Scheme
		dst    *int
	}{
		{topology.NonSpeculative, &out.NonSpeculative},
		{topology.Hybrid, &out.Hybrid},
		{topology.AllSpeculative, &out.AllSpeculative},
	} {
		p, err := topology.ForScheme(m, s.scheme)
		if err != nil {
			return AddressSizes{}, err
		}
		*s.dst = p.AddressBits()
	}
	// The list-based related-work schemes depend only on the geometry;
	// any non-serial fabric yields their width.
	f := Fabric{Placement: topology.MustForScheme(m, topology.NonSpeculative)}
	out.PathBased = pathBased.HeaderBits(f)
	out.DPM = dpm.HeaderBits(f)
	return out, nil
}
