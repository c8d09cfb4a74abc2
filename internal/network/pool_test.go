package network

import (
	"fmt"
	"math/rand"
	"testing"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
)

// runPoolWorkload drives one seeded random workload (unicast and
// multicast, staggered injection times) through a fresh network with the
// packet pool forced on or off, and returns the rendered trace log.
func runPoolWorkload(t *testing.T, spec Spec, pooled bool) (*Network, []string) {
	t.Helper()
	nw, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.pooling = pooled
	nw.Rec.SetWindow(0, 1<<62)
	var log []string
	nw.Trace = func(ev TraceEvent) {
		log = append(log, fmt.Sprintf("%s@%d pkt%d[%d] n%d/%d p%d d%d",
			ev.Kind, ev.At, ev.Flit.Pkt.ID, ev.Flit.Index, ev.Tree, ev.Heap, ev.Ports, ev.Dest))
	}
	r := rand.New(rand.NewSource(7))
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		at += sim.Time(r.Intn(2000))
		src := r.Intn(spec.N)
		var dests packet.DestSet
		for dests.Empty() {
			dests = packet.DestSet(r.Uint64() & (1<<uint(spec.N) - 1))
		}
		s, d := src, dests
		nw.Sched.At(at, funcHandler(func() {
			if _, err := nw.Inject(s, d); err != nil {
				t.Errorf("inject: %v", err)
			}
		}), 0)
	}
	nw.Sched.Run()
	if tracked := nw.Rec.TrackedPackets(); tracked != 0 {
		t.Errorf("%s pooled=%v: %d packets still tracked after quiescence", spec.Name, pooled, tracked)
	}
	return nw, log
}

// TestPoolingTraceEquivalence runs the same seeded workload with the
// packet pool on and off and requires byte-identical traces: recycling a
// packet must never change what the simulation observably does. Run under
// -race this also guards use-after-release — a packet recycled while a
// live flit still referenced it would render wrong IDs or routes into the
// pooled trace.
func TestPoolingTraceEquivalence(t *testing.T) {
	for _, spec := range []Spec{baselineSpec(8), basicHybrid(8), optHybrid(8)} {
		_, pooledLog := runPoolWorkload(t, spec, true)
		_, plainLog := runPoolWorkload(t, spec, false)
		if len(pooledLog) != len(plainLog) {
			t.Fatalf("%s: pooled trace has %d events, unpooled %d", spec.Name, len(pooledLog), len(plainLog))
		}
		for i := range pooledLog {
			if pooledLog[i] != plainLog[i] {
				t.Fatalf("%s: trace diverges at event %d:\npooled:   %s\nunpooled: %s",
					spec.Name, i, pooledLog[i], plainLog[i])
			}
		}
	}
}

// TestPoolingTraceEquivalenceStrategies extends the pooled-vs-unpooled
// trace equivalence over every routing strategy: the multi-plan clone
// expansions (path-based dual packets, DPM partitions, cross-fabric
// serial unicasts) must recycle packets without observable effect.
func TestPoolingTraceEquivalenceStrategies(t *testing.T) {
	for _, base := range []Spec{baselineSpec(8), optHybrid(8)} {
		for _, strat := range routing.StrategyNames() {
			spec := base
			spec.Strategy = strat
			spec.Name = base.Name + "+" + strat
			_, pooledLog := runPoolWorkload(t, spec, true)
			_, plainLog := runPoolWorkload(t, spec, false)
			if len(pooledLog) != len(plainLog) {
				t.Fatalf("%s: pooled trace has %d events, unpooled %d", spec.Name, len(pooledLog), len(plainLog))
			}
			for i := range pooledLog {
				if pooledLog[i] != plainLog[i] {
					t.Fatalf("%s: trace diverges at event %d:\npooled:   %s\nunpooled: %s",
						spec.Name, i, pooledLog[i], plainLog[i])
				}
			}
		}
	}
}

// TestPacketPoolConservation checks the refcount bookkeeping after a
// quiesced pooled run: every freelisted packet has a zero refcount, no
// packet was released twice (a double release would enqueue the same
// pointer twice), and the freelist high-water mark is far below the
// number of packets injected — proof that recycling actually happened.
func TestPacketPoolConservation(t *testing.T) {
	for _, spec := range []Spec{baselineSpec(8), optHybrid(8)} {
		nw, _ := runPoolWorkload(t, spec, true)
		seen := make(map[*packet.Packet]bool)
		for _, p := range nw.pktFree {
			if p.Refs != 0 {
				t.Errorf("%s: freelisted packet with refcount %d", spec.Name, p.Refs)
			}
			if seen[p] {
				t.Errorf("%s: packet released twice", spec.Name)
			}
			seen[p] = true
		}
		allocated := len(nw.pktFree)
		created := int(nw.nextID)
		if allocated == 0 || allocated >= created/2 {
			t.Errorf("%s: %d heap packets for %d created — pool not recycling", spec.Name, allocated, created)
		}
	}
}

// TestTxSlabRecycling exercises the fault-mode NI transaction slabs with
// a fault rate too small to ever fire: the full tracking/ack protocol
// runs, every tx slot must recycle by end of run, and stale handles from
// completed packets must not alias later occupants (generation counters —
// a violation would surface as a wrong-destination confirm and a
// tracked-packet leak).
func TestTxSlabRecycling(t *testing.T) {
	spec := optHybrid(8)
	spec.Faults = fault.Config{Seed: 1, CorruptRate: 1e-300}
	nw, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	r := rand.New(rand.NewSource(3))
	at := sim.Time(0)
	for i := 0; i < 150; i++ {
		at += sim.Time(r.Intn(3000))
		src := r.Intn(8)
		var dests packet.DestSet
		for dests.Empty() {
			dests = packet.DestSet(r.Uint64() & 0xff)
		}
		s, d := src, dests
		nw.Sched.At(at, funcHandler(func() {
			if _, err := nw.Inject(s, d); err != nil {
				t.Errorf("inject: %v", err)
			}
		}), 0)
	}
	nw.Sched.Run()
	if fs := nw.FaultStats(); fs.LostPackets != 0 || fs.Retries != 0 {
		t.Fatalf("unexpected faults fired: %+v", *fs)
	}
	for src, ni := range nw.sources {
		if live := ni.txSlab.Live(); live != 0 {
			t.Errorf("source %d: %d tx slots still live after quiescence", src, live)
		}
	}
	if tracked := nw.Rec.TrackedPackets(); tracked != 0 {
		t.Errorf("%d packets still tracked after quiescence", tracked)
	}
}
