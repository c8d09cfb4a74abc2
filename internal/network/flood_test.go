package network

import (
	"testing"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
)

// funcHandler adapts a closure to sim.Handler, for tests that inject
// packets at fixed times.
type funcHandler func()

func (f funcHandler) OnEvent(int64) { f() }

// floodAssertions drives a workload through a speculative network and
// checks the DESIGN §6 failure-injection contract:
//
//   - the simulation terminates with every measured packet fully
//     delivered (no deadlock under saturating replication pressure), and
//   - every redundant copy dies at the FIRST non-speculative node it
//     meets: a throttle may only happen at an addressable node whose
//     subtree holds none of the packet's destinations, reached through
//     exclusively speculative ancestors (a non-speculative ancestor
//     would have killed the copy earlier).
func floodAssertions(t *testing.T, spec Spec, inject func(nw *Network)) {
	t.Helper()
	nw, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	nw.Meter.SetWindow(0, 1<<62)
	throttles := 0
	nw.Trace = func(ev TraceEvent) {
		if ev.Kind != TraceThrottle {
			return
		}
		throttles++
		k := ev.Heap
		if nw.Placement.IsSpeculative(k) {
			t.Errorf("throttle at speculative node %d: speculative nodes must always broadcast", k)
		}
		if !ev.Flit.BranchDests().Intersect(nw.MoT.SubtreeDests(k)).Empty() {
			t.Errorf("node %d throttled a live copy (dests %v)", k, ev.Flit.BranchDests())
		}
		for p, _ := nw.MoT.Parent(k); p >= 1; p, _ = nw.MoT.Parent(p) {
			if !nw.Placement.IsSpeculative(p) {
				t.Errorf("redundant copy passed non-speculative node %d before dying at %d", p, k)
			}
			if p == 1 {
				break
			}
		}
	}
	inject(nw)
	nw.Sched.Run()
	if got := nw.Rec.CompletionRate(); got != 1 {
		t.Fatalf("completion %.3f after drain: network deadlocked or lost packets", got)
	}
	if nw.Rec.MeasuredCreated() == 0 {
		t.Fatal("no packets measured")
	}
	t.Logf("%s: %d packets, %d throttled flits", spec.Name, nw.Rec.MeasuredCreated(), throttles)
}

// TestBroadcastFloodAllSpeculative floods the speculative-everywhere
// network with all-destinations broadcasts from every source at once:
// maximum replication pressure on every fanin tree simultaneously. The
// network must drain without deadlock and deliver every header.
func TestBroadcastFloodAllSpeculative(t *testing.T) {
	all := packet.Range(0, 8)
	floodAssertions(t, optAllSpec(8), func(nw *Network) {
		for round := 0; round < 8; round++ {
			at := sim.Time(round) * 300 * sim.Picosecond
			for src := 0; src < 8; src++ {
				src := src
				nw.Sched.At(at, funcHandler(func() {
					if _, err := nw.Inject(src, all); err != nil {
						t.Error(err)
					}
				}), 0)
			}
		}
	})
}

// TestMisrouteStormAllSpeculative is the misroute adversary: unicast
// packets into the speculative-everywhere network, where every level
// above the leaves broadcasts blindly. Each packet spawns a redundant
// copy toward almost every leaf; all of them must be terminated at the
// leaf-level addressable nodes and every real destination still served.
func TestMisrouteStormAllSpeculative(t *testing.T) {
	floodAssertions(t, optAllSpec(8), func(nw *Network) {
		r := rng.New(99)
		for i := 0; i < 64; i++ {
			at := sim.Time(i) * 250 * sim.Picosecond
			src, dest := r.Intn(8), r.Intn(8)
			nw.Sched.At(at, funcHandler(func() {
				if _, err := nw.Inject(src, packet.Dest(dest)); err != nil {
					t.Error(err)
				}
			}), 0)
		}
	})
}

// TestFloodStrategies runs the misroute adversary under every routing
// strategy on the speculative architectures: whatever partition a scheme
// plans, each clone's redundant copies must still die at the first
// addressable node off the clone's own destination subset, and the
// network must drain completely.
func TestFloodStrategies(t *testing.T) {
	for _, base := range []Spec{optHybrid(8), optAllSpec(8)} {
		for _, strat := range routing.StrategyNames() {
			spec := base
			spec.Strategy = strat
			spec.Name = base.Name + "+" + strat
			t.Run(spec.Name, func(t *testing.T) {
				floodAssertions(t, spec, func(nw *Network) {
					r := rng.New(13)
					for i := 0; i < 40; i++ {
						at := sim.Time(i) * 300 * sim.Picosecond
						src := r.Intn(8)
						var dests packet.DestSet
						for dests.Empty() {
							for d := 0; d < 8; d++ {
								if r.Bool(0.4) {
									dests = dests.Add(d)
								}
							}
						}
						nw.Sched.At(at, funcHandler(func() {
							if _, err := nw.Inject(src, dests); err != nil {
								t.Error(err)
							}
						}), 0)
					}
				})
			})
		}
	}
}

// TestFloodHybrids extends the flood to the hybrid architectures, where
// the first non-speculative node sits directly below the speculative
// root level — redundant copies must die there, one hop in.
func TestFloodHybrids(t *testing.T) {
	for _, spec := range []Spec{basicHybrid(8), optHybrid(8)} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			floodAssertions(t, spec, func(nw *Network) {
				r := rng.New(7)
				for i := 0; i < 48; i++ {
					at := sim.Time(i) * 300 * sim.Picosecond
					src := r.Intn(8)
					var dests packet.DestSet
					for dests.Empty() {
						for d := 0; d < 8; d++ {
							if r.Bool(0.4) {
								dests = dests.Add(d)
							}
						}
					}
					nw.Sched.At(at, funcHandler(func() {
						if _, err := nw.Inject(src, dests); err != nil {
							t.Error(err)
						}
					}), 0)
				}
			})
		})
	}
}
