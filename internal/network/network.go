// Package network assembles complete asynchronous MoT NoC instances from
// the behavioral node models: one fanout tree per source, one fanin tree
// per destination, source and sink network interfaces, and the accounting
// hooks (latency recorder, energy meter, optional trace).
//
// The package also implements the serial-multicast expansion of the
// Baseline network: a k-destination multicast injected there becomes k
// back-to-back unicast packets, exactly the scheme the paper's new
// parallel networks are compared against.
package network

import (
	"fmt"
	"math/bits"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/metrics"
	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/pool"
	"asyncnoc/internal/power"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
)

// Spec describes one network architecture.
type Spec struct {
	// Name is the reporting name (e.g. "OptHybridSpeculative").
	Name string
	// N is the MoT radix (terminals per side).
	N int
	// PacketLen is the flits-per-packet (the paper uses 5).
	PacketLen int
	// Scheme selects the speculation placement of the fanout trees.
	Scheme topology.Scheme
	// SpecLevels, when non-nil, overrides Scheme with an explicit
	// per-level speculation vector (root level first; the last level
	// must be false). This opens the wider hybrid design space the
	// paper describes for larger MoTs (Figure 3(d)).
	SpecLevels []bool
	// SpecKind is the node behavior at speculative levels.
	SpecKind node.Kind
	// NonSpecKind is the node behavior at non-speculative levels.
	NonSpecKind node.Kind
	// Serial marks the baseline network: unicast-only nodes, 1-bit
	// source routing, multicast expanded into serial unicasts.
	Serial bool
	// Strategy names the multicast routing scheme that plans injections
	// (see routing.StrategyNames). Empty selects the architecture's
	// default: SerialUnicast on the serial baseline, SpeculativeMulticast
	// elsewhere — both bit-identical to the pre-strategy behavior.
	Strategy string
	// Protocol selects the channel handshake (two-phase by default;
	// four-phase models the RZ alternative the paper argues against).
	Protocol timing.Protocol
	// SyncPeriod, when positive, clocks every node at this period: the
	// synchronous-NoC comparison point of the paper's future work. Node
	// traversal is quantized to worst-case cycles and the energy meter
	// charges a load-independent clock tree.
	SyncPeriod sim.Time
	// Faults attaches a deterministic fault schedule and enables the
	// CRC-checked end-to-end retransmission protocol at the network
	// interfaces. The zero value disables the fault layer entirely: the
	// network builds and runs bit-identically to a spec without it.
	Faults fault.Config
	// Chiplet, when non-nil, composes MeshW x MeshH copies of this die
	// on an interposer mesh with die-to-die links (see internal/chiplet).
	// Every die is an independent n x n MoT of this spec's architecture;
	// cross-die packets leave through a per-die egress gateway, cross
	// the interposer hop by hop, and re-inject into the target die's
	// fanout fabric. Nil builds the plain single-die network.
	Chiplet *chiplet.Params
}

// Dies returns the die count of the composition (1 when single-die).
func (s Spec) Dies() int {
	if s.Chiplet == nil {
		return 1
	}
	return s.Chiplet.Dies()
}

// Terminals returns the total source/sink terminal count: Dies() * N.
// Terminal g lives on die g/N at local index g%N.
func (s Spec) Terminals() int { return s.Dies() * s.N }

// TopologyName implements topology.TopologySpec.
func (s Spec) TopologyName() string { return s.Name }

// CanonicalKey implements topology.TopologySpec: a stable serialization
// of every behavior-affecting field. The single-die form is
// byte-identical to the historical engine memo key, so persistent
// result stores stay warm across this API's introduction; chiplet
// compositions append their parameters.
func (s Spec) CanonicalKey() string {
	key := fmt.Sprintf("%s|%d|%d|%d|%v|%d|%d|%v|%s|%d|%d|%+v",
		s.Name, s.N, s.PacketLen, s.Scheme, s.SpecLevels,
		s.SpecKind, s.NonSpecKind, s.Serial, s.Strategy, s.Protocol, s.SyncPeriod,
		s.Faults)
	if s.Chiplet != nil {
		key += fmt.Sprintf("|chiplet|%+v", *s.Chiplet)
	}
	return key
}

// Spec satisfies the unified topology-spec surface.
var _ topology.TopologySpec = Spec{}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	if s.PacketLen < 1 {
		return fmt.Errorf("network %s: packet length %d < 1", s.Name, s.PacketLen)
	}
	if s.Serial && s.NonSpecKind != node.Baseline {
		return fmt.Errorf("network %s: serial baseline must use baseline fanout nodes", s.Name)
	}
	if !s.Serial && s.NonSpecKind == node.Baseline {
		return fmt.Errorf("network %s: baseline fanout nodes cannot route multicast", s.Name)
	}
	if s.Strategy != "" {
		if _, err := routing.StrategyByName(s.Strategy); err != nil {
			return fmt.Errorf("network %s: %w", s.Name, err)
		}
	}
	if err := s.Faults.Validate(s.N); err != nil {
		return fmt.Errorf("network %s: %w", s.Name, err)
	}
	if s.Faults.Enabled() && s.PacketLen > 63 {
		return fmt.Errorf("network %s: packet length %d > 63 unsupported with faults (rx bitmask)", s.Name, s.PacketLen)
	}
	if s.N > packet.MaxDests {
		return fmt.Errorf("network %s: die radix %d > %d (destination sets are %d-bit masks; compose smaller dies with a chiplet spec)",
			s.Name, s.N, packet.MaxDests, packet.MaxDests)
	}
	if bits := s.routeBits(); bits > routing.RouteWordBits {
		return fmt.Errorf("network %s: multicast placement at radix %d needs %d route address bits, above the %d-bit route word",
			s.Name, s.N, bits, routing.RouteWordBits)
	}
	if s.Chiplet != nil {
		if err := s.Chiplet.Validate(s.N); err != nil {
			return fmt.Errorf("network %s: %w", s.Name, err)
		}
		if s.Faults.Enabled() {
			return fmt.Errorf("network %s: the fault layer is unsupported on chiplet compositions", s.Name)
		}
	}
	return nil
}

// Placement builds the spec's MoT and resolves which fanout levels
// speculate: the serial baseline has no speculation and takes only the
// tree geometry, explicit SpecLevels override the named Scheme.
func (s Spec) Placement() (*topology.Placement, error) {
	m, err := topology.New(s.N)
	if err != nil {
		return nil, err
	}
	switch {
	case s.Serial:
		return topology.ForScheme(m, topology.NonSpeculative)
	case s.SpecLevels != nil:
		return topology.NewPlacement(m, s.SpecLevels)
	default:
		return topology.ForScheme(m, s.Scheme)
	}
}

// routeBits returns the multicast source-route size the spec's placement
// needs: 0 for the serial baseline, which routes unicast with one bit per
// level, and for radices Build rejects anyway.
func (s Spec) routeBits() int {
	if s.Serial || s.N < 2 || s.N&(s.N-1) != 0 {
		return 0
	}
	levels := bits.Len(uint(s.N)) - 1
	spec := s.SpecLevels
	if spec == nil {
		var err error
		if spec, err = topology.SchemeLevels(levels, s.Scheme); err != nil {
			return 0
		}
	}
	return topology.LevelAddressBits(spec)
}

// TraceKind classifies trace events.
type TraceKind int

const (
	// TraceInject marks a logical packet entering a source queue.
	TraceInject TraceKind = iota
	// TraceForward marks a fanout node committing a flit to ports.
	TraceForward
	// TraceThrottle marks a fanout node absorbing a redundant flit.
	TraceThrottle
	// TraceDeliver marks a flit landing at a destination interface.
	TraceDeliver
	// TraceRetransmit marks a source NI re-injecting a packet after a
	// missed end-to-end delivery deadline (fault mode only).
	TraceRetransmit
	// TraceDrop marks a source NI writing a packet off after the retry
	// budget is exhausted (fault mode only).
	TraceDrop
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceForward:
		return "forward"
	case TraceThrottle:
		return "throttle"
	case TraceDeliver:
		return "deliver"
	case TraceRetransmit:
		return "retransmit"
	case TraceDrop:
		return "drop"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observable simulation event.
type TraceEvent struct {
	Kind TraceKind
	At   sim.Time
	Flit packet.Flit
	// Tree/Heap identify the fanout node (Forward/Throttle events).
	Tree, Heap int
	// Ports is the output-port count driven (Forward events).
	Ports int
	// Dest is the destination terminal (Deliver events).
	Dest int
}

// Network is one simulated NoC instance.
type Network struct {
	Spec      Spec
	Sched     *sim.Scheduler
	MoT       *topology.MoT
	Placement *topology.Placement
	Rec       *metrics.Recorder
	Meter     *power.Meter
	// Trace, when set, observes inject/forward/throttle/deliver events.
	Trace func(TraceEvent)

	sources []*SourceNI
	sinks   []*SinkNI
	fanouts [][]*node.Fanout // [tree][heap 1..N-1]; tree = die*N + local
	fanins  [][]*node.Fanin  // [tree][heap 1..N-1]

	// egress holds one die-to-die gateway per die (chiplet compositions
	// only, nil otherwise).
	egress []*d2dEgress

	// inj owns the fault schedule; nil when Spec.Faults is disabled.
	inj *fault.Injector
	// chans lists every channel in wiring order so the watchdog can
	// sample flit occupancy (fault mode only).
	chans []*node.Channel

	// strat plans every injection and decodes every header against
	// fabric.
	strat  routing.Strategy
	fabric routing.Fabric

	nextID uint64

	// pooling enables the per-run packet freelist. It is on for every
	// fault-free network: each packet carries a live-copy refcount
	// (materialized flits, plus one per fanout replication, minus each
	// delivery and throttle absorption), and the packet recycles the
	// instant the count hits zero — by then no flit in any queue,
	// channel, or node references it. The fault layer breaks copy
	// conservation (drops, wedged links, retry write-offs with
	// stragglers in flight), so fault runs simply keep allocating.
	pooling bool
	// pktFree is the packet freelist.
	pktFree []*packet.Packet

	// deadTimers counts pending retry timers whose packet was already
	// confirmed (fault mode only); they fire as no-ops.
	deadTimers int

	// planBuf/emitPlan are the reusable plan-collection plumbing of
	// injectLeg.
	planBuf  []routing.Plan
	emitPlan func(routing.Plan)
}

// Group always returns nil. Callers that must run a network on its one
// Scheduler still check it; every network is serial.
func (nw *Network) Group() any { return nil }

// Quiesced reports whether the network has nothing left to do: every
// pending event, if any, is a dead retry timer.
func (nw *Network) Quiesced() bool { return nw.Sched.Len() == nw.deadTimers }

// FaultStats exposes the run's fault and recovery counters, or nil when
// the fault layer is disabled.
func (nw *Network) FaultStats() *fault.Stats {
	if nw.inj == nil {
		return nil
	}
	return &nw.inj.Stats
}

// New builds a network instance with its own scheduler, recorder, and
// energy meter.
func New(spec Spec) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pl, err := spec.Placement()
	if err != nil {
		return nil, err
	}
	m := pl.MoT()
	nw := &Network{
		Spec:      spec,
		MoT:       m,
		Placement: pl,
		Rec:       metrics.NewRecorder(),
	}
	nw.Rec.SetLevels(m.Levels)
	if spec.Chiplet != nil {
		nw.Rec.SetHierarchy(true)
	}
	nw.fabric = routing.Fabric{Placement: pl, Serial: spec.Serial}
	nw.strat = routing.DefaultStrategy(spec.Serial)
	if spec.Strategy != "" {
		// Validate() vetted the name.
		nw.strat, _ = routing.StrategyByName(spec.Strategy)
	}
	nw.emitPlan = func(p routing.Plan) { nw.planBuf = append(nw.planBuf, p) }
	sched := sim.NewScheduler()
	nw.Sched = sched
	nw.Meter = power.NewMeter(sched.Now)
	nw.pooling = !spec.Faults.Enabled()
	if spec.Faults.Enabled() {
		// The injector must exist before build(): every channel draws its
		// fault stream in wiring order.
		nw.inj = fault.NewInjector(spec.Faults)
		// With a retry budget a packet can be written off while its last
		// attempt's flits are still in flight; those stragglers must not
		// trip the strict unregistered-delivery panic.
		nw.Rec.SetLossTolerant(true)
	}
	nw.build()
	for _, st := range spec.Faults.Stuck {
		nw.fanouts[st.Tree][st.Heap].OutputChannel(topology.Port(st.Port)).Faults.SetStuck(st.After)
	}
	if spec.SyncPeriod > 0 {
		// The synchronous comparison point's clock tree is a
		// load-independent background power: fJ per ps is mW, clock
		// energy per node per cycle over the period.
		nodes := float64(spec.Dies()) * float64(m.TotalFanoutNodes()+m.TotalFaninNodes())
		nw.Meter.BackgroundMW = nodes * power.ClockTreeFJPerNodeCycle / float64(spec.SyncPeriod)
	}
	return nw, nil
}

// allocPacket takes a packet from the freelist (or the heap when the
// list is dry) with every field zeroed.
func (nw *Network) allocPacket() *packet.Packet {
	if n := len(nw.pktFree); n > 0 {
		p := nw.pktFree[n-1]
		nw.pktFree = nw.pktFree[:n-1]
		*p = packet.Packet{}
		return p
	}
	return &packet.Packet{}
}

// releaseCopy retires one live flit copy of p (a delivery or a throttle
// absorption). When the last copy dies the packet returns to the
// freelist, and a serial clone's death also retires one clone reference
// of its logical parent. Callers invoke it after all other uses of the
// flit in the same event (recorder, meter, trace), so no recycled packet
// is ever read through a stale flit.
func (nw *Network) releaseCopy(p *packet.Packet) {
	p.Refs--
	if p.Refs != 0 {
		return
	}
	parent := p.Parent
	nw.pktFree = append(nw.pktFree, p)
	if parent != nil {
		parent.Refs--
		if parent.Refs == 0 {
			nw.pktFree = append(nw.pktFree, parent)
		}
	}
}

// decodeSym is the fanout nodes' route decode, delegated to the
// network's routing strategy.
func (nw *Network) decodeSym(heap int, route uint64) routing.Symbol {
	return nw.strat.Decode(nw.fabric, heap, route)
}

// kindFor returns the node behavior for heap position k.
func (nw *Network) kindFor(k int) node.Kind {
	if nw.Spec.Serial {
		return node.Baseline
	}
	if nw.Placement.IsSpeculative(k) {
		return nw.Spec.SpecKind
	}
	return nw.Spec.NonSpecKind
}

// channel wires a link with the standard wire delays and energy hook.
func (nw *Network) channel(dst node.Sink, dstPort int, src node.AckTarget, srcPort int) *node.Channel {
	ch := &node.Channel{
		Sched:    nw.Sched,
		FwdDelay: timing.ChannelFwd,
		AckDelay: timing.ChannelAckFor(nw.Spec.Protocol),
		Dst:      dst,
		DstPort:  dstPort,
		Src:      src,
		SrcPort:  srcPort,
	}
	ch.OnTraverse = func(packet.Flit) { nw.Meter.Channel() }
	if nw.inj != nil {
		ch.Faults = nw.inj.Channel()
		nw.chans = append(nw.chans, ch)
	}
	return ch
}

// ChannelHold identifies a flit occupying one channel at a sampling
// instant: the channel's wiring ordinal plus the flit's identity. A flit
// never traverses the same channel twice (routes are loop-free and every
// retransmission carries a fresh attempt number), so two samples with an
// equal hold mean the flit sat in the channel the whole interval.
type ChannelHold struct {
	Chan    int
	Pkt     uint64
	Index   int
	Attempt int
}

// ChannelHolds snapshots every in-flight channel in deterministic wiring
// order. Only available with the fault layer enabled (nil otherwise);
// the watchdog compares consecutive snapshots to detect wedged links
// while traffic injection is still live.
func (nw *Network) ChannelHolds() []ChannelHold {
	var holds []ChannelHold
	for i, ch := range nw.chans {
		if f, ok := ch.InFlightFlit(); ok {
			holds = append(holds, ChannelHold{Chan: i, Pkt: f.Pkt.ID, Index: f.Index, Attempt: f.Attempt})
		}
	}
	return holds
}

// build instantiates and wires every node, interface, and channel. On a
// chiplet composition the per-die structure repeats Terminals()/N times
// — tree t belongs to die t/N at local index t%N — and every die also
// gets its egress gateway; a single-die build reduces to the historical
// wiring exactly (die 0, local == global).
func (nw *Network) build() {
	n := nw.Spec.N
	terms := nw.Spec.Terminals()
	nw.fanouts = make([][]*node.Fanout, terms)
	nw.fanins = make([][]*node.Fanin, terms)
	nw.sources = make([]*SourceNI, terms)
	nw.sinks = make([]*SinkNI, terms)
	// Multicast-capable networks decouple replication branches with a
	// two-packet FIFO per output port (see node.Fanout): headers reserve
	// a full packet of space (virtual cut-through), and the second
	// packet's worth of slots lets consecutive packets overlap. The
	// serial baseline keeps the plain bufferless switch of [21].
	fifoCap := 2 * nw.Spec.PacketLen
	if nw.Spec.Serial {
		fifoCap = 1
	}
	for t := 0; t < terms; t++ {
		nw.fanouts[t] = make([]*node.Fanout, n)
		nw.fanins[t] = make([]*node.Fanin, n)
		for k := 1; k < n; k++ {
			fo := node.NewFanout(nw.Sched, nw.kindFor(k), t, k, nw.Placement, fifoCap, nw.Spec.Protocol)
			fo.SetDecoder(nw.decodeSym)
			if nw.Spec.SyncPeriod > 0 {
				fo.Clock(nw.Spec.SyncPeriod)
			}
			tree, heap, area := t, k, fo.Timing().AreaUm2
			level := nw.MoT.LevelOf(k)
			fo.OnForward = func(f packet.Flit, ports int) {
				now := nw.Sched.Now()
				nw.Meter.NodeForward(area, ports)
				nw.Rec.FanoutForwarded(level, now)
				if nw.Trace != nil {
					nw.Trace(TraceEvent{Kind: TraceForward, At: now, Flit: f, Tree: tree, Heap: heap, Ports: ports})
				}
				if nw.pooling {
					// A replication turns one live copy into `ports`.
					f.Pkt.Refs += int32(ports - 1)
				}
			}
			fo.OnAbsorb = func(f packet.Flit) {
				now := nw.Sched.Now()
				nw.Meter.NodeAbsorb(area)
				nw.Rec.FanoutThrottled(level, now)
				if nw.Trace != nil {
					nw.Trace(TraceEvent{Kind: TraceThrottle, At: now, Flit: f, Tree: tree, Heap: heap})
				}
				if nw.pooling {
					nw.releaseCopy(f.Pkt)
				}
			}
			nw.fanouts[t][k] = fo

			fi := node.NewFanin(nw.Sched, t, k, nw.Spec.Protocol)
			if nw.Spec.SyncPeriod > 0 {
				fi.Clock(nw.Spec.SyncPeriod)
			}
			fiArea := fi.Timing().AreaUm2
			fi.OnForward = func(packet.Flit) { nw.Meter.NodeForward(fiArea, 1) }
			nw.fanins[t][k] = fi
		}
		nw.sources[t] = newSourceNI(nw, t)
		nw.sinks[t] = newSinkNI(nw, t)
	}
	// Wire the channels.
	for t := 0; t < terms; t++ {
		die, lt := t/n, t%n
		// Source NI -> fanout root.
		root := nw.channel(nw.fanouts[t][1], 0, nw.sources[t], 0)
		nw.sources[t].out = root
		nw.fanouts[t][1].ConnectInput(root)
		for k := 1; k < n; k++ {
			for _, p := range []topology.Port{topology.Top, topology.Bottom} {
				c := nw.MoT.Child(k, p)
				if c < n {
					// Internal fanout link.
					ch := nw.channel(nw.fanouts[t][c], 0, nw.fanouts[t][k], int(p))
					nw.fanouts[t][k].ConnectOutput(p, ch)
					nw.fanouts[t][c].ConnectInput(ch)
				} else {
					// Leaf crossing: fanout tree t, leaf for local dest
					// d, enters the same die's fanin tree d at the leaf
					// slot for local source t%n.
					d := c - n
					gd := die*n + d
					fiHeap := (n + lt) / 2
					fiPort := (n + lt) % 2
					ch := nw.channel(nw.fanins[gd][fiHeap], fiPort, nw.fanouts[t][k], int(p))
					nw.fanouts[t][k].ConnectOutput(p, ch)
					nw.fanins[gd][fiHeap].ConnectInput(fiPort, ch)
				}
			}
		}
		// Fanin internal links (leaves toward root) and root -> sink.
		for k := n - 1; k >= 2; k-- {
			parent, via := nw.MoT.Parent(k)
			ch := nw.channel(nw.fanins[t][parent], int(via), nw.fanins[t][k], 0)
			nw.fanins[t][k].ConnectOutput(ch)
			nw.fanins[t][parent].ConnectInput(int(via), ch)
		}
		sinkCh := nw.channel(nw.sinks[t], 0, nw.fanins[t][1], 0)
		nw.fanins[t][1].ConnectOutput(sinkCh)
		nw.sinks[t].in = sinkCh
	}
	if nw.Spec.Chiplet != nil {
		nw.egress = make([]*d2dEgress, nw.Spec.Dies())
		for die := range nw.egress {
			nw.egress[die] = newD2DEgress(nw, die)
		}
	}
}

// Inject creates a logical packet from src to dests at the current
// simulation time, plans it under the network's routing strategy, and
// queues the resulting physical packets back-to-back through the source
// interface. A single-packet plan covering the whole set rides the
// logical packet itself; any expansion (the serial baseline always, and
// every partitioning strategy) injects one clone per plan, each linked
// to the logical parent for delivery accounting. On a fault-free network
// the returned packet is pool-owned: it recycles as soon as its last
// flit copy is delivered or absorbed, so callers must not read it after
// advancing the scheduler.
func (nw *Network) Inject(src int, dests packet.DestSet) (*packet.Packet, error) {
	if nw.Spec.Chiplet != nil {
		return nil, fmt.Errorf("network %s: flat Inject cannot address a chiplet composition; use InjectWide", nw.Spec.Name)
	}
	if src < 0 || src >= nw.Spec.N {
		return nil, fmt.Errorf("network %s: source %d out of range", nw.Spec.Name, src)
	}
	if dests.Empty() {
		return nil, fmt.Errorf("network %s: empty destination set", nw.Spec.Name)
	}
	return nw.injectLeg(src, src, dests, nw.Sched.Now(), 0)
}

// InjectWide injects a hierarchically addressed packet on a chiplet
// composition: src is a global terminal and byDie carries one local
// destination mask per die (at least one non-empty). The source die's
// leg — if any — enters its fanout fabric immediately; every remote
// die's leg queues at the source die's egress gateway, crosses the
// interposer, and re-injects into the target die on arrival. Each leg
// is an independently tracked packet whose latency is measured from
// this call, so D2D transit time lands in the D2D latency class.
func (nw *Network) InjectWide(src int, byDie []packet.DestSet) error {
	if nw.Spec.Chiplet == nil {
		return fmt.Errorf("network %s: InjectWide requires a chiplet composition (use Inject)", nw.Spec.Name)
	}
	if src < 0 || src >= nw.Spec.Terminals() {
		return fmt.Errorf("network %s: source %d out of range", nw.Spec.Name, src)
	}
	if len(byDie) != nw.Spec.Dies() {
		return fmt.Errorf("network %s: destination masks for %d die(s), composition has %d", nw.Spec.Name, len(byDie), nw.Spec.Dies())
	}
	srcDie := src / nw.Spec.N
	now := nw.Sched.Now()
	any := false
	for die, dests := range byDie {
		if dests.Empty() {
			continue
		}
		any = true
		if die == srcDie {
			if _, err := nw.injectLeg(src, src, dests, now, 0); err != nil {
				return err
			}
			continue
		}
		nw.egress[srcDie].push(d2dLeg{dstDie: die, src: src, dests: dests, created: now})
	}
	if !any {
		return fmt.Errorf("network %s: empty destination set", nw.Spec.Name)
	}
	return nil
}

// injectLeg creates one physical injection through terminal anchor's
// source interface: origin is the original (global) injecting source
// recorded on the packet, dests the destination mask local to anchor's
// die, created the logical creation time latency is measured from, and
// hops the D2D mesh distance already crossed (0 for intra-die legs).
// The single-die Inject path is injectLeg(src, src, dests, now, 0) —
// byte-identical to the historical inline body.
func (nw *Network) injectLeg(anchor, origin int, dests packet.DestSet, created sim.Time, hops int) (*packet.Packet, error) {
	now := nw.Sched.Now()
	p := nw.allocPacket()
	nw.nextID++
	p.ID = nw.nextID
	p.Src = origin
	p.D2DHops = uint8(hops)
	p.Dests = dests
	p.Length = nw.Spec.PacketLen
	p.CreatedAt = int64(created)
	nw.Rec.PacketCreated(p, created)
	if nw.Trace != nil {
		nw.Trace(TraceEvent{Kind: TraceInject, At: now, Flit: packet.Flit{Pkt: p}})
	}
	nw.planBuf = nw.planBuf[:0]
	if err := nw.strat.Plan(nw.fabric, anchor%nw.Spec.N, dests, nw.emitPlan); err != nil {
		return nil, err
	}
	plans := nw.planBuf
	if !nw.Spec.Serial && len(plans) == 1 && plans[0].Dests == dests {
		p.Route = plans[0].Route
		nw.sources[anchor].enqueue(p)
		return p, nil
	}
	// Expanded plan: the logical parent's refcount holds one reference
	// per clone; it recycles when its last clone does.
	if nw.pooling {
		p.Refs = int32(len(plans))
	}
	for i := range plans {
		clone := nw.allocPacket()
		nw.nextID++
		clone.ID = nw.nextID
		clone.Src = origin
		clone.D2DHops = p.D2DHops
		clone.Dests = plans[i].Dests
		clone.Length = nw.Spec.PacketLen
		clone.Route = plans[i].Route
		clone.Parent = p
		clone.CreatedAt = int64(created)
		nw.sources[anchor].enqueue(clone)
	}
	return p, nil
}

// d2dLeg is one cross-die delivery awaiting (or crossing) the
// interposer: plain values only — the leg's Packet is allocated at
// ingress on the target die.
type d2dLeg struct {
	dstDie  int
	src     int // original global source terminal
	dests   packet.DestSet
	created sim.Time
}

// d2dEgress is one die's die-to-die gateway: an output queue serialized
// one packet at a time onto the interposer link (PacketLen flits at
// FlitSerPs each), charging the D2D link energy and launching one
// in-flight carrier per departure.
type d2dEgress struct {
	nw    *Network
	die   int
	queue pool.Ring[d2dLeg]
	busy  bool
}

func newD2DEgress(nw *Network, die int) *d2dEgress {
	return &d2dEgress{nw: nw, die: die}
}

func (eg *d2dEgress) push(l d2dLeg) {
	eg.queue.Push(l)
	eg.pump()
}

// pump starts serializing the head-of-line leg when the link is idle.
func (eg *d2dEgress) pump() {
	if eg.busy || eg.queue.Len() == 0 {
		return
	}
	eg.busy = true
	ser := sim.Time(eg.nw.Spec.PacketLen) * eg.nw.Spec.Chiplet.FlitSerPs()
	eg.nw.Sched.In(ser, eg, 0)
}

// OnEvent implements sim.Handler: serialization of the head leg is
// complete — charge the link energy, launch the in-flight carrier
// toward its die, and free the link for the next leg.
func (eg *d2dEgress) OnEvent(int64) {
	l := eg.queue.Pop()
	cp := eg.nw.Spec.Chiplet
	hops := cp.Hops(eg.die, l.dstDie)
	flitHops := eg.nw.Spec.PacketLen * hops
	eg.nw.Meter.D2D(flitHops, float64(flitHops)*cp.FlitHopPJ())
	// One fresh carrier per crossing: it becomes garbage after arrival.
	fl := &d2dFlight{nw: eg.nw, leg: l, hops: hops}
	eg.nw.Sched.In(sim.Time(hops)*cp.HopPs, fl, 0)
	eg.busy = false
	eg.pump()
}

// d2dFlight is one packet crossing the interposer. Arrival re-injects
// the leg into the target die's fanout fabric through a deterministic
// anchor terminal: the target die's tree with the source's local index,
// so ingress load spreads across the die exactly like the die's own
// sources.
type d2dFlight struct {
	nw   *Network
	leg  d2dLeg
	hops int
}

// OnEvent implements sim.Handler.
func (fl *d2dFlight) OnEvent(int64) {
	nw := fl.nw
	anchor := fl.leg.dstDie*nw.Spec.N + fl.leg.src%nw.Spec.N
	if _, err := nw.injectLeg(anchor, fl.leg.src, fl.leg.dests, fl.leg.created, fl.hops); err != nil {
		panic(fault.Violationf("network", "d2d ingress at die %d: %v", fl.leg.dstDie, err))
	}
}

// SourceQueueLen returns the backlog (in flits) of one source interface.
func (nw *Network) SourceQueueLen(src int) int { return nw.sources[src].queue.Len() }

// Fanout exposes one fanout node (tests and diagnostics).
func (nw *Network) Fanout(tree, heap int) *node.Fanout { return nw.fanouts[tree][heap] }

// Fanin exposes one fanin node (tests and diagnostics).
func (nw *Network) Fanin(tree, heap int) *node.Fanin { return nw.fanins[tree][heap] }

// StuckFlit locates one flit held somewhere in the network fabric.
type StuckFlit struct {
	// Where names the holding element, e.g. "channel fanout 3/2.T".
	Where string
	// Flit renders the held flit.
	Flit string
}

// portNames labels fanout output ports in diagnostics. Hoisted to package
// level so StuckFlits (called per watchdog poll) does not rebuild a map
// per call.
var portNames = map[topology.Port]string{topology.Top: "T", topology.Bottom: "B"}

// StuckFlits walks every queue, node stage, and channel in deterministic
// order and reports each flit still held inside the fabric. A healthy
// network that has quiesced (see Quiesced) holds none; a non-empty
// result from a quiesced network is a deadlock, and the listed
// locations are the watchdog's diagnostic.
func (nw *Network) StuckFlits() []StuckFlit {
	var out []StuckFlit
	add := func(where string, f packet.Flit) {
		out = append(out, StuckFlit{Where: where, Flit: f.String()})
	}
	n := nw.Spec.N
	for t := 0; t < nw.Spec.Terminals(); t++ {
		q := &nw.sources[t].queue
		for i := 0; i < q.Len(); i++ {
			add(fmt.Sprintf("source %d queue", t), q.At(i))
		}
		if f, ok := nw.sources[t].out.InFlightFlit(); ok {
			add(fmt.Sprintf("channel source %d -> fanout %d/1", t, t), f)
		}
		for k := 1; k < n; k++ {
			fo := nw.fanouts[t][k]
			if f, ok := fo.InputPending(); ok {
				add(fmt.Sprintf("fanout %d/%d input", t, k), f)
			}
			for _, p := range []topology.Port{topology.Top, topology.Bottom} {
				fo.EachQueued(p, func(f packet.Flit) {
					add(fmt.Sprintf("fanout %d/%d fifo.%s", t, k, portNames[p]), f)
				})
				if f, ok := fo.OutputChannel(p).InFlightFlit(); ok {
					add(fmt.Sprintf("channel fanout %d/%d.%s", t, k, portNames[p]), f)
				}
			}
			fi := nw.fanins[t][k]
			for port := 0; port < 2; port++ {
				if f, ok := fi.PendingFlit(port); ok {
					add(fmt.Sprintf("fanin %d/%d input %d", t, k, port), f)
				}
			}
			fi.EachQueued(func(f packet.Flit) {
				add(fmt.Sprintf("fanin %d/%d fifo", t, k), f)
			})
			if f, ok := fi.OutputChannel().InFlightFlit(); ok {
				add(fmt.Sprintf("channel fanin %d/%d", t, k), f)
			}
		}
	}
	return out
}

// Sink interface event payloads.
const (
	// evSinkConsume: the sink consume time elapsed — return the channel ack.
	evSinkConsume = 0
	// evSinkEndAck: an end-to-end delivery acknowledge matured — pop the
	// ack queue and confirm at the source.
	evSinkEndAck = 1
)

// SourceNI is a source network interface: an injection queue drained one
// flit per root-channel handshake. With the fault layer enabled it also
// runs the sender half of the end-to-end retransmission protocol: every
// packet is tracked until all destinations return a delivery acknowledge,
// and a per-attempt timer with capped exponential backoff re-injects the
// whole packet until the retry budget runs out.
//
// All per-packet state lives in pooled storage: the flit queue is a ring
// buffer and the retransmission tracker a slab keyed by the handle stored
// in Packet.TxSlot, so a steady-state transaction allocates nothing.
type SourceNI struct {
	nw    *Network
	src   int
	out   *node.Channel
	queue pool.Ring[packet.Flit]
	busy  bool

	// txSlab tracks unacknowledged packets (fault mode only, gated by
	// txOn). Every live entry has exactly one pending retryTimer event
	// carrying its handle. confirm frees the entry without touching the
	// timer, which later fires, finds the handle stale and does nothing.
	txSlab pool.Slab[txState]
	txOn   bool
}

// txState is one tracked packet awaiting end-to-end acknowledgment.
type txState struct {
	pkt         *packet.Packet
	outstanding packet.DestSet
	attempts    int
}

func newSourceNI(nw *Network, src int) *SourceNI {
	return &SourceNI{nw: nw, src: src, txOn: nw.inj != nil}
}

func (ni *SourceNI) enqueue(p *packet.Packet) {
	if ni.txOn {
		h, st := ni.txSlab.Alloc()
		st.pkt = p
		st.outstanding = p.Dests
		p.TxSlot = h
		ni.arm(h, st)
	} else if ni.nw.pooling {
		// The packet's initial refcount is its materialized flits.
		p.Refs = int32(p.Length)
	}
	ni.pushFlits(p, 0)
	ni.pump()
}

// pushFlits materializes the packet's flits one at a time straight into
// the ring queue — no per-packet slice.
func (ni *SourceNI) pushFlits(p *packet.Packet, attempt int) {
	for i := 0; i < p.Length; i++ {
		f := p.FlitAt(i)
		f.Attempt = attempt
		ni.queue.Push(f)
	}
}

// retryTimer is a source interface's retransmission timer. Its event
// payload is the packed tx-slab handle of the tracked packet.
type retryTimer SourceNI

// OnEvent implements sim.Handler.
func (t *retryTimer) OnEvent(arg int64) { (*SourceNI)(t).timeout(pool.Unpack(arg)) }

// arm schedules the retransmission timer for the packet's next attempt.
func (ni *SourceNI) arm(h pool.Handle, st *txState) {
	cfg := ni.nw.inj.Config()
	ni.nw.Sched.In(sim.Time(cfg.BackoffPs(st.attempts+1)), (*retryTimer)(ni), h.Pack())
}

// timeout fires when a tracked packet's delivery deadline passed:
// retransmit all flits, or write the packet off once the budget is spent.
// A timer whose packet was confirmed in the meantime finds its handle
// stale and does nothing.
func (ni *SourceNI) timeout(h pool.Handle) {
	st := ni.txSlab.Get(h)
	if st == nil {
		ni.nw.deadTimers--
		return
	}
	cfg := ni.nw.inj.Config()
	stats := &ni.nw.inj.Stats
	if st.attempts >= cfg.MaxRetries {
		pkt, attempts := st.pkt, st.attempts
		stats.LostFlits += pkt.Length * st.outstanding.Count()
		stats.LostPackets++
		ni.txSlab.Free(h)
		// Release the recorder's per-packet tracking state: the packet
		// can never complete, and soak runs must not accumulate it.
		ni.nw.Rec.PacketLost(pkt, ni.nw.Sched.Now())
		if ni.nw.Trace != nil {
			ni.nw.Trace(TraceEvent{Kind: TraceDrop, At: ni.nw.Sched.Now(),
				Flit: packet.Flit{Pkt: pkt, Attempt: attempts}})
		}
		return
	}
	st.attempts++
	stats.Retries++
	if ni.nw.Trace != nil {
		ni.nw.Trace(TraceEvent{Kind: TraceRetransmit, At: ni.nw.Sched.Now(),
			Flit: packet.Flit{Pkt: st.pkt, Attempt: st.attempts}})
	}
	ni.pushFlits(st.pkt, st.attempts)
	ni.arm(h, st)
	ni.pump()
}

// confirm processes one destination's end-to-end delivery acknowledge.
// A stale handle (the packet already completed or was written off, and
// the slot's generation advanced) is a no-op. Completing a packet leaves
// its retry timer pending as a dead timer.
func (ni *SourceNI) confirm(h pool.Handle, dest int) {
	st := ni.txSlab.Get(h)
	if st == nil {
		return // already complete or written off
	}
	st.outstanding &^= packet.Dest(dest)
	if st.outstanding.Empty() {
		ni.txSlab.Free(h)
		ni.nw.deadTimers++
	}
}

func (ni *SourceNI) pump() {
	if ni.busy || ni.queue.Len() == 0 {
		return
	}
	f := ni.queue.Pop()
	ni.busy = true
	ni.nw.Meter.Interface()
	ni.out.Send(f)
}

// OnAck implements node.AckTarget: the root channel returned its ack.
func (ni *SourceNI) OnAck(int) {
	ni.nw.Sched.In(timing.NICycle, ni, 0)
}

// OnEvent implements sim.Handler: the source interface cycle elapsed, so
// resume the queue.
func (ni *SourceNI) OnEvent(int64) {
	ni.busy = false
	ni.pump()
}

// SinkNI is a destination network interface: it consumes flits, records
// deliveries, and acknowledges after its consume time. With the fault
// layer enabled it runs the receiver half of the recovery protocol:
// CRC-check every flit, drop corrupt ones, deduplicate retransmitted
// copies, and return an end-to-end delivery acknowledge once a packet's
// every flit has landed clean.
type SinkNI struct {
	nw   *Network
	dest int
	in   *node.Channel

	// rxSlab/rxIdx deduplicate per-packet flit arrivals by index bitmask
	// (fault mode only, gated by rxOn). Entries are never freed — exactly
	// the retention the map they replace had, so a late straggler from a
	// written-off packet still deduplicates correctly.
	rxOn   bool
	rxSlab pool.Slab[rxState]
	rxIdx  pool.IDMap

	// acks queues matured end-to-end acknowledges. Every ack matures
	// after the same constant delay, so the scheduler fires evSinkEndAck
	// events in push order and a FIFO carries the (source, tx handle)
	// payload without a per-ack closure.
	acks pool.Ring[endAck]
}

// rxState is one packet's receive progress at a destination.
type rxState struct {
	got   uint64 // bitmask over flit indices received clean
	acked bool   // end-to-end acknowledge already scheduled
}

// endAck is one pending end-to-end delivery acknowledge.
type endAck struct {
	src int
	h   pool.Handle // the packet's tx-slab handle at its source
}

func newSinkNI(nw *Network, dest int) *SinkNI {
	return &SinkNI{nw: nw, dest: dest, rxOn: nw.inj != nil}
}

// rxStateFor returns the receive progress for packet id, creating it on
// first arrival.
func (ni *SinkNI) rxStateFor(id uint64) *rxState {
	if h, ok := ni.rxIdx.Get(id); ok {
		return ni.rxSlab.Get(h)
	}
	h, st := ni.rxSlab.Alloc()
	ni.rxIdx.Put(id, h)
	return st
}

// OnEvent implements sim.Handler: the sink interface's timer events.
func (ni *SinkNI) OnEvent(arg int64) {
	switch arg {
	case evSinkConsume:
		ni.in.Ack()
	case evSinkEndAck:
		a := ni.acks.Pop()
		ni.nw.sources[a.src].confirm(a.h, ni.dest)
	}
}

// OnFlit implements node.Sink.
func (ni *SinkNI) OnFlit(_ int, f packet.Flit) {
	nw := ni.nw
	now := nw.Sched.Now()
	nw.Meter.Interface()
	if !ni.rxOn {
		// Fault layer disabled: the legacy path, bit-identical to the
		// pre-fault model.
		nw.Rec.FlitDelivered(now, f.Pkt.D2DHops > 0)
		if f.IsHeader() {
			// The recorder tracks die-local destination masks, so membership
			// is checked against the sink's index within its die (identical
			// to ni.dest on single-die networks).
			nw.Rec.HeaderArrived(f.Pkt, ni.dest%nw.Spec.N, now)
		}
		if nw.Trace != nil {
			nw.Trace(TraceEvent{Kind: TraceDeliver, At: now, Flit: f, Dest: ni.dest})
		}
		nw.Sched.In(timing.SinkAck, ni, evSinkConsume)
		if nw.pooling {
			// Last use of the flit in this event: recorder, trace, and
			// ack are done, so the delivered copy can retire.
			nw.releaseCopy(f.Pkt)
		}
		return
	}
	// Fault mode: the physical arrival is always traced and acknowledged
	// at the link level, but accounting accepts each (packet, flit index)
	// exactly once and only when the CRC checks out.
	if nw.Trace != nil {
		nw.Trace(TraceEvent{Kind: TraceDeliver, At: now, Flit: f, Dest: ni.dest})
	}
	nw.Sched.In(timing.SinkAck, ni, evSinkConsume)
	if !f.CheckCRC() {
		return // corrupted in flight; recovered by retransmission
	}
	st := ni.rxStateFor(f.Pkt.ID)
	bit := uint64(1) << uint(f.Index)
	if st.got&bit != 0 {
		return // duplicate from a retransmission
	}
	st.got |= bit
	if f.Attempt > 0 {
		nw.inj.Stats.RecoveredFlits++
	}
	nw.Rec.FlitDelivered(now, false)
	if f.IsHeader() {
		nw.Rec.HeaderArrived(f.Pkt, ni.dest, now)
	}
	if !st.acked && st.got == uint64(1)<<uint(f.Pkt.Length)-1 {
		st.acked = true
		ni.acks.Push(endAck{src: f.Pkt.Src, h: f.Pkt.TxSlot})
		nw.Sched.In(sim.Time(nw.inj.Config().AckDelayPs), ni, evSinkEndAck)
	}
}
