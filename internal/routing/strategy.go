package routing

import (
	"fmt"
	"math/bits"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/topology"
)

// This file promotes the package's encoders into a pluggable Strategy
// layer: a multicast scheme decides how one logical destination set
// becomes physical packets (the plan) and what header width the scheme
// costs. Every scheme is one partition step over a Path, the fabric's
// Hamiltonian order plus the link cost of a destination set, so the same
// five schemes drive the MoT (index order, LinkCost) and the 2D mesh
// (snake order, XY-tree links). Five schemes are registered:
//
//   - SerialUnicast: one unicast packet per destination, in ascending
//     index order — the paper's serial baseline, available on every fabric.
//   - TreeMulticast: one tree-replicated packet for the whole set, with
//     every fanout node addressed (the paper's parallel multicast).
//   - SpeculativeMulticast: the same single-packet plan under the
//     simplified source routing of Section 3 — speculative nodes carry
//     no field, so the header shrinks with the placement (14 -> 12 -> 8
//     bits across the 8x8 architectures). The default multicast scheme.
//   - PathBased: dual-path multicast from the related work
//     (arXiv:1610.00751): destinations split into an "up" partition
//     (at or after the source on the path, delivered in path order) and
//     a "down" partition (before it, delivered backwards), one packet each.
//   - DPM: Dynamic Partition Merging (arXiv:2108.00566): start from
//     per-destination partitions in path order and greedily merge
//     adjacent partitions while the merged plan costs fewer link
//     traversals than the parts separately.
//
// On a serial (unicast-only) fabric every delivery chain of a plan
// expands into one unicast per destination, in path order. A strategy
// changes packet structure, never node hardware: the fanout nodes decode
// every route word with DecodeSymbol.

// Fabric is the routing-relevant description of a MoT network: its
// speculation placement (which also carries the MoT geometry) and
// whether it is the serial baseline whose nodes decode 1-bit unicast
// path routes. It is the MoT's Path: index order and LinkCost.
type Fabric struct {
	Placement *topology.Placement
	Serial    bool
}

// MoT returns the fabric's tree geometry.
func (f Fabric) MoT() *topology.MoT { return f.Placement.MoT() }

// Len implements Path: one position per terminal.
func (f Fabric) Len() int { return f.MoT().N }

// Pos implements Path: the MoT's Hamiltonian order is the destination
// index order itself.
func (f Fabric) Pos(d int) int { return d }

// Cost implements Path. Every source's fanout tree has the same shape,
// so the cost does not depend on src.
func (f Fabric) Cost(_ int, dests packet.DestSet) int { return LinkCost(f, dests) }

// Route encodes one planned packet's route word: the 1-bit unicast path
// of its single destination on the serial fabric, the placement's 2-bit
// multicast fields elsewhere.
func (f Fabric) Route(dests packet.DestSet) (uint64, error) {
	if f.Serial {
		return EncodeBaseline(f.MoT(), dests.First())
	}
	return EncodeMulticast(f.Placement, dests)
}

// Path is what the partition step asks of a fabric: its terminal count,
// each terminal's position in [0, Len()) on its Hamiltonian path
// (consecutive positions are neighbors), and the link traversals of delivering a
// destination set from src in one packet — or, on a serial fabric, in
// its unicast expansion.
type Path interface {
	Len() int
	Pos(d int) int
	Cost(src int, dests packet.DestSet) int
}

// Strategy is a multicast routing scheme.
type Strategy interface {
	// Name is the scheme's registry and reporting name.
	Name() string
	// Plan expands one logical injection from src into physical packets
	// over path p, calling emit once per packet destination set in
	// injection order; serial expands every delivery chain into
	// unicasts in path order. It validates src and dests against p
	// before emitting anything.
	Plan(p Path, serial bool, src int, dests packet.DestSet, emit func(packet.DestSet)) error
	// HeaderBits is the scheme's per-packet header address width on the
	// MoT fabric, extending the Section 5.2(d) cost comparison.
	HeaderBits(f Fabric) int
}

// Scheme registry names.
const (
	SerialUnicastName        = "SerialUnicast"
	TreeMulticastName        = "TreeMulticast"
	SpeculativeMulticastName = "SpeculativeMulticast"
	PathBasedName            = "PathBased"
	DPMName                  = "DPM"
)

// DecodeSymbol is the per-node decode of every scheme: baseline nodes
// read their 1-bit path field, multicast fabrics read the placement's
// 2-bit field (speculative nodes broadcast).
func DecodeSymbol(f Fabric, heap int, route uint64) Symbol {
	if f.Serial {
		if BaselinePort(route, f.MoT().LevelOf(heap)) == topology.Top {
			return SymTop
		}
		return SymBottom
	}
	return NodeSymbol(f.Placement, heap, route)
}

// forEachDesc visits the set's members in descending order.
func forEachDesc(s packet.DestSet, fn func(d int)) {
	for v := uint64(s); v != 0; {
		d := bits.Len64(v) - 1
		v &^= 1 << uint(d)
		fn(d)
	}
}

// pathOrder re-indexes a set by path position: the set of occupied
// positions and the member at each of them.
func pathOrder(p Path, s packet.DestSet) (onPath packet.DestSet, at [packet.MaxDests]int8) {
	s.ForEach(func(d int) {
		q := p.Pos(d)
		onPath = onPath.Add(q)
		at[q] = int8(d)
	})
	return onPath, at
}

// emitChain emits one delivery chain: the whole group as one packet, or
// on a serial fabric one unicast per member in path order (backwards
// when desc is set).
func emitChain(p Path, serial bool, dests packet.DestSet, desc bool, emit func(packet.DestSet)) {
	if dests.Empty() {
		return
	}
	if !serial {
		emit(dests)
		return
	}
	onPath, at := pathOrder(p, dests)
	one := func(q int) { emit(packet.Dest(int(at[q]))) }
	if desc {
		forEachDesc(onPath, one)
	} else {
		onPath.ForEach(one)
	}
}

// scheme implements Strategy over two closures: the partition step and
// the header cost.
type scheme struct {
	name string
	plan func(p Path, serial bool, src int, dests packet.DestSet, emit func(packet.DestSet))
	bits func(f Fabric) int
}

// Name implements Strategy.
func (s *scheme) Name() string { return s.name }

// Plan implements Strategy.
func (s *scheme) Plan(p Path, serial bool, src int, dests packet.DestSet, emit func(packet.DestSet)) error {
	n := p.Len()
	if src < 0 || src >= n {
		return fmt.Errorf("routing: source %d outside [0,%d)", src, n)
	}
	if dests.Empty() {
		return fmt.Errorf("routing: empty destination set")
	}
	if extra := dests &^ packet.Range(0, n); !extra.Empty() {
		return fmt.Errorf("routing: destinations %v outside [0,%d)", extra, n)
	}
	s.plan(p, serial, src, dests, emit)
	return nil
}

// HeaderBits implements Strategy. The serial baseline always carries the
// 1-bit-per-level unicast path regardless of scheme.
func (s *scheme) HeaderBits(f Fabric) int {
	if f.Serial {
		return topology.BaselineAddressBits(f.MoT())
	}
	return s.bits(f)
}

// PathSplit partitions a destination set for dual-path delivery around
// the source's position on path p: up holds the destinations at or
// after the source, down the rest.
func PathSplit(p Path, src int, dests packet.DestSet) (up, down packet.DestSet) {
	srcPos := p.Pos(src)
	dests.ForEach(func(d int) {
		if p.Pos(d) >= srcPos {
			up = up.Add(d)
		} else {
			down = down.Add(d)
		}
	})
	return up, down
}

// MergeAdjacent is the Dynamic Partition Merging core: given partitions
// in Hamiltonian order, repeatedly merge an adjacent pair whenever the
// merged partition's plan is strictly cheaper than the two parts
// separately, until no merge improves. Ties do not merge — a merge that
// saves nothing only serializes deliveries behind one header. The input
// slice is consumed.
func MergeAdjacent(parts []packet.DestSet, cost func(packet.DestSet) int) []packet.DestSet {
	for merged := true; merged; {
		merged = false
		for i := 0; i+1 < len(parts); i++ {
			a, b := parts[i], parts[i+1]
			if cost(a|b) < cost(a)+cost(b) {
				parts[i] = a | b
				parts = append(parts[:i+1], parts[i+2:]...)
				merged = true
				i--
			}
		}
	}
	return parts
}

// LinkCost counts the fanout-tree link traversals the destination set
// costs on the fabric: the links of the decode walk from the tree root,
// including the wasted broadcasts of speculative nodes (an off-path copy
// still crosses the link that carries it to the addressable node that
// throttles it). On the serial fabric the set expands into unicasts,
// each walking the full Levels-deep path. The source-to-root injection
// link is common to every plan and excluded, so a merge that shares no
// tree links is never an improvement.
func LinkCost(f Fabric, dests packet.DestSet) int {
	m := f.MoT()
	if f.Serial {
		return dests.Count() * m.Levels
	}
	var walk func(k int) int
	walk = func(k int) int {
		sym := SymBoth
		if !f.Placement.IsSpeculative(k) {
			needTop := !dests.Intersect(m.SubtreeDests(m.Child(k, topology.Top))).Empty()
			needBot := !dests.Intersect(m.SubtreeDests(m.Child(k, topology.Bottom))).Empty()
			sym = SymbolFor(needTop, needBot)
		}
		cost := 0
		for _, p := range []topology.Port{topology.Top, topology.Bottom} {
			if !sym.Wants(p) {
				continue
			}
			cost++
			if c := m.Child(k, p); c < m.N {
				cost += walk(c)
			}
		}
		return cost
	}
	return walk(1)
}

// ceilDiv is ceil(a/b) for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// single is the plan of both tree schemes: the whole set as one chain.
func single(p Path, serial bool, _ int, dests packet.DestSet, emit func(packet.DestSet)) {
	emitChain(p, serial, dests, false, emit)
}

var (
	serialUnicast = &scheme{
		name: SerialUnicastName,
		// Index order on every fabric: each destination is its own chain.
		plan: func(_ Path, _ bool, _ int, dests packet.DestSet, emit func(packet.DestSet)) {
			dests.ForEach(func(d int) { emit(packet.Dest(d)) })
		},
		// Nominally each unicast needs only its path bits, but a
		// multicast fabric's nodes read the placement's 2-bit fields, so
		// that is what every packet carries.
		bits: func(f Fabric) int { return f.Placement.AddressBits() },
	}

	treeMulticast = &scheme{
		name: TreeMulticastName,
		plan: single,
		// Parallel multicast addresses every fanout node: 2 bits per
		// node (14 for the 8x8 MoT), the paper's pre-simplification cost.
		bits: func(f Fabric) int { return 2 * f.MoT().NodesPerTree() },
	}

	speculativeMulticast = &scheme{
		name: SpeculativeMulticastName,
		plan: single,
		// Simplified source routing: only addressable nodes carry fields.
		bits: func(f Fabric) int { return f.Placement.AddressBits() },
	}

	pathBased = &scheme{
		name: PathBasedName,
		plan: func(p Path, serial bool, src int, dests packet.DestSet, emit func(packet.DestSet)) {
			up, down := PathSplit(p, src, dests)
			emitChain(p, serial, up, false, emit)
			emitChain(p, serial, down, true, emit)
		},
		// Each dual-path header is provisioned to list half the
		// terminals, log2(n) bits per listed destination.
		bits: func(f Fabric) int {
			m := f.MoT()
			return ceilDiv(m.N, 2) * m.Levels
		},
	}

	dpm = &scheme{
		name: DPMName,
		plan: func(p Path, serial bool, src int, dests packet.DestSet, emit func(packet.DestSet)) {
			var buf [packet.MaxDests]packet.DestSet
			parts := buf[:0]
			onPath, at := pathOrder(p, dests)
			onPath.ForEach(func(q int) { parts = append(parts, packet.Dest(int(at[q]))) })
			parts = MergeAdjacent(parts, func(s packet.DestSet) int { return p.Cost(src, s) })
			for _, part := range parts {
				emitChain(p, serial, part, false, emit)
			}
		},
		// The merged-partition header must hold the worst case of every
		// destination in one partition: n entries of log2(n) bits.
		bits: func(f Fabric) int {
			m := f.MoT()
			return m.N * m.Levels
		},
	}
)

// Strategies returns every registered scheme in reporting order.
func Strategies() []Strategy {
	return []Strategy{serialUnicast, treeMulticast, speculativeMulticast, pathBased, dpm}
}

// StrategyNames returns the registry names in reporting order.
func StrategyNames() []string {
	all := Strategies()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name()
	}
	return names
}

// StrategyByName resolves a registry name.
func StrategyByName(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("routing: unknown strategy %q (have %v)", name, StrategyNames())
}

// DefaultStrategy returns the scheme a fabric uses when the spec names
// none: a serial fabric expands multicasts into unicasts in index
// order, every other fabric sends the whole set as one packet (the
// paper's simplified speculative multicast on the MoT).
func DefaultStrategy(serial bool) Strategy {
	if serial {
		return serialUnicast
	}
	return speculativeMulticast
}
