package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// RunConfig parameterizes one simulation run. Packet injection at every
// source is an open-loop Poisson process whose rate realizes LoadGFs
// offered flits per nanosecond per source.
type RunConfig struct {
	// Bench generates destination sets.
	Bench traffic.Benchmark
	// LoadGFs is the offered load in gigaflits/s (== flits/ns) per source.
	LoadGFs float64
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Warmup precedes the measurement window (Section 5.1 uses long
	// warmup phases).
	Warmup sim.Time
	// Measure is the measurement window length.
	Measure sim.Time
	// Drain is extra simulated time after the window during which
	// injection continues (holding the network at load) so measured
	// packets can complete under steady-state conditions.
	Drain sim.Time
	// MaxEvents is the watchdog's event budget: a run dispatching more
	// events aborts with a LivelockError. Zero selects no explicit
	// budget; runs with faults enabled then get a generous automatic
	// backstop (see Run).
	MaxEvents uint64
	// Instruments are attached to the built network before the run and
	// finished (flushed) after it; see Instrument. Instrumented runs are
	// executed fresh, never served from the engine's memo.
	Instruments []Instrument
}

// FieldError names one invalid RunConfig field and why it is invalid.
type FieldError struct {
	Field  string
	Reason string
}

func (e FieldError) String() string { return e.Field + ": " + e.Reason }

// ConfigError reports every invalid field of a RunConfig at once, so a
// caller building a configuration from flags or a file sees the full
// repair list in one round trip instead of one field per attempt.
type ConfigError struct {
	Fields []FieldError
}

func (e *ConfigError) Error() string {
	var b strings.Builder
	b.WriteString("core: invalid RunConfig: ")
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// Validate checks the configuration, aggregating every invalid field
// into a single *ConfigError.
func (c RunConfig) Validate() error {
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if c.Bench == nil {
		add("Bench", "needs a benchmark")
	}
	if c.LoadGFs <= 0 {
		add("LoadGFs", "offered load %v must be positive", c.LoadGFs)
	}
	if c.Warmup < 0 {
		add("Warmup", "warmup %v must not be negative", c.Warmup)
	}
	if c.Measure <= 0 {
		add("Measure", "measurement window %v must be positive", c.Measure)
	}
	if c.Drain < 0 {
		add("Drain", "drain %v must not be negative", c.Drain)
	}
	for i, ins := range c.Instruments {
		if ins == nil {
			add("Instruments", "instrument %d is nil", i)
		}
	}
	if len(fields) > 0 {
		return &ConfigError{Fields: fields}
	}
	return nil
}

// The paper's standard measurement windows (Section 5.1) and offered
// load, used by DefaultRunConfig.
const (
	DefaultWarmup  = 320 * sim.Nanosecond
	DefaultMeasure = 3200 * sim.Nanosecond
	DefaultDrain   = 800 * sim.Nanosecond
	DefaultLoadGFs = 0.4
)

// DefaultRunConfig returns the paper's standard setup for an n-terminal
// network: uniform random traffic at 0.4 GFs per source with the
// Section 5.1 warmup/measure/drain windows and seed 1. Callers override
// individual fields before running.
func DefaultRunConfig(n int) RunConfig {
	return RunConfig{
		Bench:   traffic.UniformRandom{N: n},
		LoadGFs: DefaultLoadGFs,
		Seed:    1,
		Warmup:  DefaultWarmup,
		Measure: DefaultMeasure,
		Drain:   DefaultDrain,
	}
}

// MaxLevels is the deepest fanout tree the topology supports (N ≤ 64 ⇒
// log2(N) ≤ 6); RunResult's per-level counters are sized to it so the
// struct stays comparable.
const MaxLevels = 6

// RunResult summarizes one run.
type RunResult struct {
	Network   string
	Benchmark string
	// LoadGFs echoes the offered per-source load.
	LoadGFs float64
	// AvgLatencyNs is the mean network latency (injection to arrival of
	// all headers) of packets injected inside the measurement window.
	AvgLatencyNs float64
	// P50LatencyNs is the median latency.
	P50LatencyNs float64
	// P95LatencyNs is the 95th-percentile latency.
	P95LatencyNs float64
	// P99LatencyNs is the 99th-percentile latency.
	P99LatencyNs float64
	// ThroughputGFs is the accepted throughput: flit deliveries in the
	// window per nanosecond per source.
	ThroughputGFs float64
	// PowerMW is the total network power over the window.
	PowerMW float64
	// Completion is the fraction of measured packets fully delivered by
	// the end of the run (1.0 in any uncongested network).
	Completion float64
	// MeasuredPackets is the number of packets injected in the window.
	MeasuredPackets int
	// LostMeasuredPackets is how many measured-window packets the fault
	// layer wrote off after the retry budget (0 without faults).
	LostMeasuredPackets int

	// Levels is the fanout tree depth; only the first Levels entries of
	// the per-level counters below are meaningful.
	Levels int
	// ForwardsPerLevel and ThrottlesPerLevel count fanout flit movements
	// per tree level (root first, fixed-size so RunResult stays
	// comparable and memo-safe) inside the measurement window: forwards
	// are flits committed to output ports, throttles are redundant
	// speculative copies absorbed. Together they quantify the paper's
	// locality claim — speculation waste dying one level below each
	// speculative node.
	ForwardsPerLevel  [MaxLevels]int64
	ThrottlesPerLevel [MaxLevels]int64
	// RedundantFraction is throttled flits over all fanout movements in
	// the window.
	RedundantFraction float64

	// Hierarchy-level breakout, all zero on single-die networks: a
	// chiplet composition splits the measured packets into the intra-die
	// class (source and destinations on the same die) and the D2D class
	// (legs that crossed the interposer).
	//
	// D2DMeasuredPackets counts completed measured packets/legs that
	// crossed at least one die-to-die hop.
	D2DMeasuredPackets int
	// AvgIntraLatencyNs / P95IntraLatencyNs summarize the intra-die
	// class's latency.
	AvgIntraLatencyNs float64
	P95IntraLatencyNs float64
	// AvgD2DLatencyNs / P95D2DLatencyNs summarize the D2D class's
	// latency (serialization + interposer hops + ingress-die fanout).
	AvgD2DLatencyNs float64
	P95D2DLatencyNs float64
	// D2DThroughputGFs is the D2D share of the accepted throughput.
	D2DThroughputGFs float64
	// D2DPowerMW is the interposer-link share of PowerMW.
	D2DPowerMW float64
	// D2DFlitHops counts flit-hop interposer crossings in the window.
	D2DFlitHops int64

	// Fault-layer counters, all zero when the spec's fault config is
	// disabled (see fault.Stats for the precise semantics).
	FaultsInjected int
	Retries        int
	RecoveredFlits int
	LostFlits      int
	LostPackets    int
}

// Run executes one simulation and returns its measurements. Protocol
// violations inside the model surface as *ProtocolError; a wedged or
// runaway simulation aborts with *DeadlockError or *LivelockError.
func Run(spec network.Spec, cfg RunConfig) (RunResult, error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: the simulation is checked against
// ctx between event batches and aborts with ctx.Err() once it is done.
func RunContext(ctx context.Context, spec network.Spec, cfg RunConfig) (res RunResult, err error) {
	defer RecoverViolations(spec.Name, &err)
	nw, err := Build(spec, cfg)
	if err != nil {
		return RunResult{}, err
	}
	if err := attachInstruments(nw, cfg.Instruments); err != nil {
		return RunResult{}, err
	}
	total := sim.AddSat(sim.AddSat(cfg.Warmup, cfg.Measure), cfg.Drain)
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 && spec.Faults.Enabled() {
		// Automatic backstop for fault runs: generous enough that any
		// legitimate simulation fits with orders of magnitude to spare,
		// tight enough to stop a retransmission storm. Saturate rather
		// than wrap for absurdly long spans.
		maxEvents = uint64(total)
		if mul := uint64(spec.N) * 64; maxEvents > math.MaxUint64/mul {
			maxEvents = math.MaxUint64
		} else {
			maxEvents *= mul
		}
	}
	if err := runGuarded(ctx, nw, total, maxEvents); err != nil {
		_ = finishInstruments(cfg.Instruments) // best effort on an aborted run
		return RunResult{}, err
	}
	res = Collect(nw, cfg)
	if err := finishInstruments(cfg.Instruments); err != nil {
		return res, err
	}
	return res, nil
}

// watchdogChunks is the granularity of the guarded run loop: the budget
// and the context are consulted this many times over the simulated span.
const watchdogChunks = 64

// heldBoundaries is the wedge threshold: a flit occupying the same
// channel at this many consecutive chunk boundaries (i.e. for at least
// heldBoundaries-1 chunks, ~3% of the simulated span per chunk) is
// diagnosed as a deadlock. Legitimate channel holds last nanoseconds in
// the below-saturation regimes fault runs use; a wedged link holds its
// flit forever.
const heldBoundaries = 3

// holdStreak tracks how many consecutive boundaries one channel has held
// the same flit.
type holdStreak struct {
	hold  network.ChannelHold
	count int
}

// runGuarded drives the scheduler to `total` simulated picoseconds under
// the watchdog. Without a context deadline or event budget it is the
// plain single RunUntil of the original harness (bit-identical); with
// either, the same event sequence is dispatched in bounded chunks so the
// run can abort between batches. In both modes quiescence with flits
// still held in the fabric is diagnosed as a deadlock.
func runGuarded(ctx context.Context, nw *network.Network, total sim.Time, maxEvents uint64) error {
	sched := nw.Sched
	if ctx.Done() == nil && maxEvents == 0 {
		sched.RunUntil(total)
	} else {
		chunk := total / watchdogChunks
		if chunk < 1 {
			chunk = 1
		}
		// With faults enabled, watch for wedged links: injection runs for
		// the whole span, so a stuck channel never quiesces the event
		// queue — instead it pins one flit in one channel forever.
		watchHolds := nw.FaultStats() != nil
		streaks := make(map[int]holdStreak)
		for t := chunk; ; t = sim.AddSat(t, chunk) {
			if t > total {
				t = total
			}
			sched.RunUntil(t)
			if err := ctx.Err(); err != nil {
				return err
			}
			if maxEvents > 0 && sched.Executed() > maxEvents {
				return &LivelockError{Network: nw.Spec.Name, Events: sched.Executed(), At: sched.Now()}
			}
			if watchHolds {
				next := make(map[int]holdStreak)
				for _, h := range nw.ChannelHolds() {
					s := streaks[h.Chan]
					if s.hold == h {
						s.count++
					} else {
						s = holdStreak{hold: h, count: 1}
					}
					if s.count >= heldBoundaries {
						return &DeadlockError{Network: nw.Spec.Name, At: sched.Now(), Stuck: nw.StuckFlits()}
					}
					next[h.Chan] = s
				}
				streaks = next
			}
			if t >= total || nw.Quiesced() {
				break
			}
		}
		if sched.Now() < total {
			sched.RunUntil(total) // advance the clock past an early quiescence
		}
	}
	if nw.Quiesced() {
		if stuck := nw.StuckFlits(); len(stuck) > 0 {
			return &DeadlockError{Network: nw.Spec.Name, At: sched.Now(), Stuck: stuck}
		}
	}
	return nil
}

// Build constructs the network with injection processes armed and
// measurement windows set, but does not run it. Callers that need custom
// instrumentation (tracing, stepping) use Build + Collect directly.
func Build(spec network.Spec, cfg RunConfig) (*network.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw, err := network.New(spec)
	if err != nil {
		return nil, err
	}
	var wide traffic.WideBenchmark
	if spec.Chiplet != nil {
		w, ok := cfg.Bench.(traffic.WideBenchmark)
		if !ok {
			return nil, fmt.Errorf("core: benchmark %s cannot address chiplet composition %s (needs traffic.WideBenchmark)",
				cfg.Bench.Name(), spec.Name)
		}
		wide = w
	}
	windowEnd := sim.AddSat(cfg.Warmup, cfg.Measure)
	nw.Rec.SetWindow(cfg.Warmup, windowEnd)
	nw.Meter.SetWindow(cfg.Warmup, windowEnd)
	injectUntil := sim.AddSat(windowEnd, cfg.Drain)
	// Mean packet inter-arrival in ps: PacketLen flits at LoadGFs
	// flits/ns per source.
	meanGapPs := float64(spec.PacketLen) / cfg.LoadGFs * 1000
	terms := spec.Terminals()
	// Pre-size the recorder from the injection schedule: open-loop
	// Poisson processes inject span/meanGap packets each in expectation.
	// The 9/8 headroom absorbs ordinary Poisson fluctuation; an
	// underestimate only costs amortized growth.
	expected := float64(injectUntil) / meanGapPs * float64(terms)
	nw.Rec.Reserve(int(expected*9/8) + terms)
	root := rng.New(cfg.Seed)
	for s := 0; s < terms; s++ {
		inj := &injector{
			nw: nw, bench: cfg.Bench, src: s, r: root.Split(),
			meanGapPs: meanGapPs, injectUntil: injectUntil,
		}
		if wide != nil {
			inj.wide, inj.byDie = wide, make([]packet.DestSet, spec.Dies())
		}
		nw.Sched.In(gap(inj.r, meanGapPs), inj, 0)
	}
	return nw, nil
}

// injector drives one source's open-loop Poisson process: each event
// injects a packet and re-arms itself after an exponential gap, stopping
// once the drain window closes.
type injector struct {
	nw          *network.Network
	bench       traffic.Benchmark
	src         int
	r           *rng.Source
	meanGapPs   float64
	injectUntil sim.Time

	// wide/byDie drive hierarchical injection on chiplet compositions:
	// the benchmark fills one local destination mask per die into the
	// injector-owned scratch buffer and the packet enters via InjectWide.
	wide  traffic.WideBenchmark
	byDie []packet.DestSet
}

// OnEvent implements sim.Handler.
func (in *injector) OnEvent(int64) {
	if in.nw.Sched.Now() >= in.injectUntil {
		return
	}
	if in.wide != nil {
		in.wide.NextWideDests(in.src, in.byDie, in.r)
		if err := in.nw.InjectWide(in.src, in.byDie); err != nil {
			panic(fault.Violationf(fmt.Sprintf("benchmark %s", in.bench.Name()), "%v", err))
		}
	} else if _, err := in.nw.Inject(in.src, in.bench.NextDests(in.src, in.r)); err != nil {
		// A benchmark producing an invalid destination set is a
		// protocol-level modeling bug; surface it as one.
		panic(fault.Violationf(fmt.Sprintf("benchmark %s", in.bench.Name()), "%v", err))
	}
	in.nw.Sched.In(gap(in.r, in.meanGapPs), in, 0)
}

// gap draws an exponential inter-arrival time of at least 1 ps.
func gap(r *rng.Source, meanPs float64) sim.Time {
	g := sim.Time(r.Exp(meanPs))
	if g < 1 {
		g = 1
	}
	return g
}

// Collect extracts the run's measurements from a finished network.
func Collect(nw *network.Network, cfg RunConfig) RunResult {
	return collect(nw, cfg.Bench.Name(), cfg.LoadGFs)
}

// collect builds the RunResult of a finished network driven by the named
// benchmark at the given offered load.
func collect(nw *network.Network, bench string, loadGFs float64) RunResult {
	res := RunResult{
		Network:         nw.Spec.Name,
		Benchmark:       bench,
		LoadGFs:         loadGFs,
		ThroughputGFs:   nw.Rec.ThroughputGFs(nw.Spec.Terminals()),
		PowerMW:         nw.Meter.PowerMW(),
		Completion:      nw.Rec.CompletionRate(),
		MeasuredPackets: nw.Rec.MeasuredCreated(),
	}
	if sum := nw.Rec.LatencySummary(); sum.Count() > 0 {
		// Sort-once summary: one sort serves all four latency figures.
		res.AvgLatencyNs = sum.Mean()
		res.P50LatencyNs = sum.P50()
		res.P95LatencyNs = sum.P95()
		res.P99LatencyNs = sum.P99()
	}
	res.LostMeasuredPackets = nw.Rec.MeasuredLost()
	res.Levels = nw.MoT.Levels
	copy(res.ForwardsPerLevel[:], nw.Rec.ForwardsPerLevel())
	copy(res.ThrottlesPerLevel[:], nw.Rec.ThrottlesPerLevel())
	res.RedundantFraction = nw.Rec.RedundantFraction()
	if nw.Spec.Chiplet != nil {
		res.D2DMeasuredPackets = nw.Rec.MeasuredCompletedD2D()
		if avg, p95, ok := nw.Rec.IntraLatency(); ok {
			res.AvgIntraLatencyNs, res.P95IntraLatencyNs = avg, p95
		}
		if avg, p95, ok := nw.Rec.D2DLatency(); ok {
			res.AvgD2DLatencyNs, res.P95D2DLatencyNs = avg, p95
		}
		res.D2DThroughputGFs = nw.Rec.D2DThroughputGFs(nw.Spec.Terminals())
		res.D2DPowerMW = nw.Meter.D2DPowerMW()
		res.D2DFlitHops = nw.Meter.D2DFlitHops()
	}
	if fs := nw.FaultStats(); fs != nil {
		res.FaultsInjected = fs.Injected
		res.Retries = fs.Retries
		res.RecoveredFlits = fs.RecoveredFlits
		res.LostFlits = fs.LostFlits
		res.LostPackets = fs.LostPackets
	}
	return res
}
