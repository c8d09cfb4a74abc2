package mesh

import (
	"testing"

	"asyncnoc/internal/core"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

func treeSpec(w, h int) Spec {
	return Spec{Name: "MeshTree", W: w, H: h, PacketLen: 5}
}

func serialSpec(w, h int) Spec {
	return Spec{Name: "MeshSerial", W: w, H: h, PacketLen: 5, Serial: true}
}

func TestSpecValidation(t *testing.T) {
	if err := treeSpec(4, 4).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, s := range []Spec{
		{W: 1, H: 1, PacketLen: 5},
		{W: 9, H: 8, PacketLen: 5}, // 72 tiles > 64
		{W: 4, H: 4, PacketLen: 0},
	} {
		if s.Validate() == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m, err := New(treeSpec(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 12; d++ {
		x, y := m.Coord(d)
		if m.Tile(x, y) != d {
			t.Fatalf("coord round trip failed for %d", d)
		}
		if x < 0 || x >= 4 || y < 0 || y >= 3 {
			t.Fatalf("coord(%d) = (%d,%d) out of bounds", d, x, y)
		}
	}
}

func TestRouteOutsPartition(t *testing.T) {
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// From tile (1,1): dest (3,1) east, (0,1) west, (1,3) north, (1,0)
	// south, (1,1) local.
	dests := packet.Dests(m.Tile(3, 1), m.Tile(0, 1), m.Tile(1, 3), m.Tile(1, 0), m.Tile(1, 1))
	mask, sub := m.routeOuts(1, 1, dests)
	wantMask := uint8(1<<North | 1<<East | 1<<South | 1<<West | 1<<LocalPort)
	if mask != wantMask {
		t.Errorf("mask %05b, want %05b", mask, wantMask)
	}
	if sub[East] != packet.Dest(m.Tile(3, 1)) || sub[LocalPort] != packet.Dest(m.Tile(1, 1)) {
		t.Errorf("subsets wrong: %+v", sub)
	}
	// XY rule: X is resolved before Y — a dest at (3,3) goes east, not north.
	mask, sub = m.routeOuts(1, 1, packet.Dest(m.Tile(3, 3)))
	if mask != 1<<East {
		t.Errorf("XY violated: mask %05b", mask)
	}
	// Union of subsets is the input set.
	var union packet.DestSet
	for _, s := range sub {
		union |= s
	}
	if union != packet.Dest(m.Tile(3, 3)) {
		t.Errorf("subsets do not partition the destination set")
	}
}

func TestUnicastAllPairs4x4(t *testing.T) {
	for _, spec := range []Spec{treeSpec(4, 4), serialSpec(4, 4)} {
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Rec.SetWindow(0, 1<<62)
		total := 0
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if _, err := m.Inject(s, packet.Dest(d)); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
		m.Sched.Run()
		if m.Rec.MeasuredCompleted() != total {
			t.Errorf("%s: %d/%d unicasts delivered", spec.Name, m.Rec.MeasuredCompleted(), total)
		}
	}
}

func TestMulticastDeliveryProperty(t *testing.T) {
	r := rng.New(31)
	for _, spec := range []Spec{treeSpec(4, 4), serialSpec(4, 4), treeSpec(8, 8), treeSpec(5, 3)} {
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Rec.SetWindow(0, 1<<62)
		tiles := spec.Tiles()
		total := 0
		for trial := 0; trial < 100; trial++ {
			var dests packet.DestSet
			for dests.Empty() {
				for d := 0; d < tiles; d++ {
					if r.Bool(0.25) {
						dests = dests.Add(d)
					}
				}
			}
			if _, err := m.Inject(r.Intn(tiles), dests); err != nil {
				t.Fatal(err)
			}
			total++
		}
		m.Sched.Run()
		if m.Rec.MeasuredCompleted() != total {
			t.Errorf("%s %dx%d: %d/%d multicasts delivered",
				spec.Name, spec.W, spec.H, m.Rec.MeasuredCompleted(), total)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Inject(-1, packet.Dest(0)); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := m.Inject(16, packet.Dest(0)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := m.Inject(0, 0); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := m.Inject(0, packet.Dest(16)); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestSerialExpansionQueue(t *testing.T) {
	m, err := New(serialSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	m.Rec.SetWindow(0, 1<<62)
	if _, err := m.Inject(0, packet.Dests(3, 7, 12)); err != nil {
		t.Fatal(err)
	}
	// 3 clones x 5 flits, minus the first flit already on the wire.
	if q := m.SourceQueueLen(0); q != 14 {
		t.Errorf("queue %d flits, want 14", q)
	}
	m.Sched.Run()
	if m.Rec.MeasuredCompleted() != 1 {
		t.Error("serial multicast incomplete")
	}
}

func TestTreeBeatsSerialMulticastLatency(t *testing.T) {
	// The future-work analogue of the paper's core result: tree-based
	// multicast beats serial unicasts on a mesh too.
	cfg := core.RunConfig{
		Bench:   traffic.Multicast{N: 16, Frac: 0.2},
		LoadGFs: 0.15,
		Seed:    4,
		Warmup:  200 * sim.Nanosecond,
		Measure: 1000 * sim.Nanosecond,
		Drain:   600 * sim.Nanosecond,
	}
	tree, err := Run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(serialSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Completion != 1 || serial.Completion != 1 {
		t.Fatalf("incomplete runs: tree %v serial %v", tree.Completion, serial.Completion)
	}
	if tree.AvgLatencyNs >= serial.AvgLatencyNs {
		t.Errorf("tree multicast (%.2f ns) not faster than serial (%.2f ns)",
			tree.AvgLatencyNs, serial.AvgLatencyNs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := core.RunConfig{
		Bench:   traffic.UniformRandom{N: 16},
		LoadGFs: 0.3,
		Seed:    9,
		Warmup:  100 * sim.Nanosecond,
		Measure: 400 * sim.Nanosecond,
		Drain:   300 * sim.Nanosecond,
	}
	a, err := Run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same-seed mesh runs diverged:\n%+v\n%+v", a, b)
	}
}

// Run reports the full latency summary, like the MoT harness: a mesh
// row must not print zero percentiles next to a non-zero P95.
func TestRunLatencyPercentiles(t *testing.T) {
	cfg := core.RunConfig{
		Bench:   traffic.UniformRandom{N: 16},
		LoadGFs: 0.3,
		Seed:    9,
		Warmup:  100 * sim.Nanosecond,
		Measure: 400 * sim.Nanosecond,
		Drain:   300 * sim.Nanosecond,
	}
	res, err := Run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < res.P50LatencyNs && res.P50LatencyNs <= res.P95LatencyNs && res.P95LatencyNs <= res.P99LatencyNs) {
		t.Errorf("latency percentiles out of order: p50 %v, p95 %v, p99 %v",
			res.P50LatencyNs, res.P95LatencyNs, res.P99LatencyNs)
	}
	if res.AvgLatencyNs <= 0 || res.LostMeasuredPackets != 0 {
		t.Errorf("avg %v ns, %d measured packets lost", res.AvgLatencyNs, res.LostMeasuredPackets)
	}
}

func TestBroadcastFloodStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	m.Rec.SetWindow(0, 1<<62)
	total := 0
	for round := 0; round < 25; round++ {
		for s := 0; s < 16; s++ {
			if _, err := m.Inject(s, packet.Range(0, 16)); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	m.Sched.Run()
	if m.Rec.MeasuredCompleted() != total {
		t.Fatalf("broadcast flood: %d/%d delivered (deadlock?)", m.Rec.MeasuredCompleted(), total)
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two sources target the same destination; the sink must see the
	// packets' flits without interleaving (wormhole locks hold).
	m, err := New(treeSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.Rec.SetWindow(0, 1<<62)
	// Instrument the sink by checking recorder completion plus flit
	// ordering through a custom channel observer on the sink link.
	var order []uint64
	snk := m.sinks[3]
	prev := snk.in.OnTraverse
	snk.in.OnTraverse = func(f packet.Flit) {
		if prev != nil {
			prev(f)
		}
		order = append(order, f.Pkt.ID)
	}
	if _, err := m.Inject(0, packet.Dest(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Inject(1, packet.Dest(3)); err != nil {
		t.Fatal(err)
	}
	m.Sched.Run()
	if len(order) != 10 {
		t.Fatalf("sink saw %d flits, want 10", len(order))
	}
	for i := 1; i < 5; i++ {
		if order[i] != order[0] {
			t.Fatalf("interleaved flits at sink: %v", order)
		}
	}
	for i := 6; i < 10; i++ {
		if order[i] != order[5] {
			t.Fatalf("interleaved flits at sink: %v", order)
		}
	}
}

func TestMeshSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	base := core.RunConfig{
		Bench: traffic.Shuffle{N: 16}, Seed: 3,
		Warmup: 100 * sim.Nanosecond, Measure: 350 * sim.Nanosecond, Drain: 300 * sim.Nanosecond,
	}
	sat, err := Saturation(treeSpec(4, 4), core.SatConfig{Base: base, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sat.SatLoadGFs <= 0.1 || sat.SatLoadGFs > 6 {
		t.Errorf("implausible mesh saturation %v", sat.SatLoadGFs)
	}
	if sat.AtSaturation.Completion < 0.92 {
		t.Errorf("unstable point reported: %+v", sat.AtSaturation)
	}
}

func TestXYPathUniquenessProperty(t *testing.T) {
	// XY dimension order: from any router, a destination maps to exactly
	// one output port, and walking the ports reaches it in
	// |dx|+|dy| hops.
	m, err := New(treeSpec(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 15; s++ {
		for d := 0; d < 15; d++ {
			x, y := m.Coord(s)
			dx, dy := m.Coord(d)
			hops := 0
			for m.Tile(x, y) != d {
				mask, sub := m.routeOuts(x, y, packet.Dest(d))
				if mask&(mask-1) != 0 {
					t.Fatalf("unicast fanned out at (%d,%d): mask %05b", x, y, mask)
				}
				switch mask {
				case 1 << East:
					x++
				case 1 << West:
					x--
				case 1 << North:
					y++
				case 1 << South:
					y--
				default:
					t.Fatalf("stuck at (%d,%d) toward %d", x, y, d)
				}
				if sub[East]|sub[West]|sub[North]|sub[South]|sub[LocalPort] != packet.Dest(d) {
					t.Fatal("subset lost the destination")
				}
				hops++
				if hops > 10 {
					t.Fatalf("no progress from %d to %d", s, d)
				}
			}
			want := abs(dx-m.xOf(s)) + abs(dy-m.yOf(s))
			if hops != want {
				t.Fatalf("%d->%d took %d hops, want %d", s, d, hops, want)
			}
		}
	}
}

func (m *Mesh) xOf(t int) int { x, _ := m.Coord(t); return x }
func (m *Mesh) yOf(t int) int { _, y := m.Coord(t); return y }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
