// Package packet defines the flit-level data units that travel through the
// asynchronous Mesh-of-Trees network.
//
// A packet is a fixed sequence of flits: one header carrying the source
// route, zero or more body flits, and one tail. The paper evaluates 5-flit
// packets (header + 3 body + tail); the model supports any length >= 1
// (a 1-flit packet is a combined header/tail).
package packet

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"

	"asyncnoc/internal/pool"
)

// MaxDests is the widest destination space one DestSet can address.
// Larger systems go through the chiplet composition layer, which
// carries one local DestSet per die.
const MaxDests = 64

// MaxLength is the longest packet a network spec may declare. The fault
// layer's receive bitmask tracks one bit per flit index of a packet in a
// 64-bit word, and every fanout node and mesh router sizes its FIFOs
// from the length when the network is built, so both topologies apply
// this one limit whether or not faults are enabled.
const MaxLength = 63

// LengthError rejects a spec's packet length outside [1, MaxLength].
type LengthError struct {
	Length int
}

func (e *LengthError) Error() string {
	return fmt.Sprintf("packet length %d outside [1,%d] (packet.MaxLength)", e.Length, MaxLength)
}

// CheckLength returns a *LengthError unless 1 <= length <= MaxLength.
func CheckLength(length int) error {
	if length < 1 || length > MaxLength {
		return &LengthError{Length: length}
	}
	return nil
}

// DestSet is a bitmask over destination terminal indices (bit d set means
// destination d is addressed). It supports networks of up to 64 terminals
// per side, far beyond the 8x8 and 16x16 MoTs studied in the paper.
type DestSet uint64

// Dest returns the singleton set {d}.
func Dest(d int) DestSet { return 1 << uint(d) }

// Dests builds a set from a list of destination indices.
func Dests(ds ...int) DestSet {
	var s DestSet
	for _, d := range ds {
		s |= Dest(d)
	}
	return s
}

// Has reports whether d is in the set.
func (s DestSet) Has(d int) bool { return s&Dest(d) != 0 }

// Add returns the set with d included.
func (s DestSet) Add(d int) DestSet { return s | Dest(d) }

// Count returns the number of destinations in the set.
func (s DestSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no destinations.
func (s DestSet) Empty() bool { return s == 0 }

// Intersect returns the intersection of two sets.
func (s DestSet) Intersect(o DestSet) DestSet { return s & o }

// Range returns the set of all destinations in [lo, hi).
func Range(lo, hi int) DestSet {
	if hi <= lo {
		return 0
	}
	if hi-lo >= 64 {
		return ^DestSet(0) << uint(lo)
	}
	return ((1 << uint(hi-lo)) - 1) << uint(lo)
}

// Members returns the destinations in ascending order. It allocates;
// hot paths iterate with ForEach instead.
func (s DestSet) Members() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; {
		d := bits.TrailingZeros64(v)
		out = append(out, d)
		v &= v - 1
	}
	return out
}

// ForEach calls fn for every destination in ascending order without
// allocating — the hot-path iteration primitive (injection expansion,
// routing and throttle checks); Members remains for tests and display.
func (s DestSet) ForEach(fn func(d int)) {
	for v := uint64(s); v != 0; v &= v - 1 {
		fn(bits.TrailingZeros64(v))
	}
}

// First returns the smallest destination in the set, or -1 if empty.
func (s DestSet) First() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// String renders the set as "{d0,d1,...}".
func (s DestSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, d := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte('}')
	return b.String()
}

// FlitKind distinguishes the three flit classes of a packet.
type FlitKind uint8

const (
	// Header carries the source route and opens the path.
	Header FlitKind = iota
	// Body carries payload.
	Body
	// Tail carries payload and closes/releases the path.
	Tail
)

// String returns the conventional short name of the flit kind.
func (k FlitKind) String() string {
	switch k {
	case Header:
		return "header"
	case Body:
		return "body"
	case Tail:
		return "tail"
	default:
		return fmt.Sprintf("FlitKind(%d)", uint8(k))
	}
}

// Packet is a single injected message. For the serial-multicast baseline a
// logical multicast is expanded into several Packets that share the same
// Parent.
type Packet struct {
	// ID is unique per simulation run.
	ID uint64
	// Src is the injecting source terminal.
	Src int
	// Dests is the destination set (singleton for unicast).
	Dests DestSet
	// Length is the total number of flits (>= 1).
	Length int
	// Route is the packed source-routing address bits for the header,
	// interpreted by internal/routing against the network's placement.
	Route uint64
	// Parent links a serialized unicast clone back to the logical
	// multicast packet it was expanded from (nil otherwise).
	Parent *Packet
	// CreatedAt is the generation timestamp in picoseconds, recorded by
	// the network interface for latency accounting.
	CreatedAt int64
	// D2DHops is the number of die-to-die mesh hops this packet (or leg)
	// crossed before injection into its fanout tree; 0 on single-die
	// networks and intra-die traffic. It classifies deliveries into the
	// intra-die vs D2D hierarchy levels of the reports.
	D2DHops uint8

	// Refs and TxSlot are per-run pool bookkeeping managed by the owning
	// network (see internal/network): Refs counts the packet's live flit
	// copies in the fabric (materialized minus delivered/absorbed; for a
	// serial-multicast parent, its outstanding clones) so the packet can
	// be recycled the instant the last copy dies, and TxSlot is the
	// source interface's retransmission-slot handle in fault mode.
	Refs   int32
	TxSlot pool.Handle
}

// IsMulticast reports whether the packet addresses more than one destination.
func (p *Packet) IsMulticast() bool { return p.Dests.Count() > 1 }

// Flit is one transfer unit on a channel.
type Flit struct {
	Pkt *Packet
	// Index is the flit position within the packet, 0-based.
	Index int
	// Branch is the per-branch destination subset used by
	// destination-encoded routing (the 2D-mesh substrate prunes the
	// header's destination mask at every replication). Zero means the
	// full Pkt.Dests applies (source-routed MoT networks never prune).
	Branch DestSet
	// Payload models the flit's data bundle: a deterministic function of
	// (packet ID, flit index) filled at flit materialization. Transient
	// link faults flip payload bits; routing and handshake fields are
	// conservatively assumed protected.
	Payload uint64
	// CRC is the CRC-32C checksum of Payload computed by the source
	// network interface; the destination interface recomputes it to
	// detect in-flight corruption.
	CRC uint32
	// Attempt is the retransmission attempt that produced this copy
	// (0 = first transmission).
	Attempt int
}

// crcTable is the Castagnoli polynomial table used for flit checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadFor derives a flit's modeled payload bits from its identity
// (splitmix64 finalizer over packet ID and flit index).
func payloadFor(id uint64, index int) uint64 {
	z := id<<20 ^ uint64(index) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// payloadCRC computes the CRC-32C of a payload word, processing its
// bytes in little-endian order. The table loop is bit-identical to
// crc32.Checksum over the same eight bytes (locked by a test) but keeps
// the word in registers: the library call forces a heap-escaping staging
// buffer, which was one allocation per materialized flit.
func payloadCRC(payload uint64) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crcTable[byte(crc)^byte(payload)] ^ (crc >> 8)
		payload >>= 8
	}
	return ^crc
}

// CheckCRC reports whether the flit's payload still matches its checksum
// — false after an in-flight payload corruption.
func (f Flit) CheckCRC() bool { return payloadCRC(f.Payload) == f.CRC }

// BranchDests returns the destination set this flit copy is responsible
// for: the pruned branch subset if set, the packet's full set otherwise.
func (f Flit) BranchDests() DestSet {
	if f.Branch != 0 {
		return f.Branch
	}
	return f.Pkt.Dests
}

// Kind derives the flit class from its position and the packet length.
func (f Flit) Kind() FlitKind {
	switch {
	case f.Index == 0:
		return Header
	case f.Index == f.Pkt.Length-1:
		return Tail
	default:
		return Body
	}
}

// IsHeader reports whether this is the header flit.
func (f Flit) IsHeader() bool { return f.Index == 0 }

// IsTail reports whether this is the last flit. A 1-flit packet's single
// flit is both header and tail.
func (f Flit) IsTail() bool { return f.Index == f.Pkt.Length-1 }

// String renders the flit for traces.
func (f Flit) String() string {
	return fmt.Sprintf("pkt%d[%d/%d:%s]", f.Pkt.ID, f.Index, f.Pkt.Length, f.Kind())
}

// FlitAt materializes the i-th flit of the packet (0-based) with its
// payload sealed under the CRC-32C checksum. It does not allocate; the
// network interfaces materialize flits one at a time straight into their
// ring queues instead of building a slice per packet.
func (p *Packet) FlitAt(i int) Flit {
	payload := payloadFor(p.ID, i)
	return Flit{Pkt: p, Index: i, Payload: payload, CRC: payloadCRC(payload)}
}

// Flits materializes all flits of the packet in order, with payloads
// sealed under their CRC-32C checksums (tests and cold paths; hot paths
// use FlitAt).
func (p *Packet) Flits() []Flit {
	out := make([]Flit, p.Length)
	for i := range out {
		out[i] = p.FlitAt(i)
	}
	return out
}
