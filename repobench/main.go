// Command repobench is the repository's benchmark. One invocation runs
// one workload for a host-time budget, checks every simulated output
// against the references in reference/, and prints the workload's
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 a separate traced pass reports the per-layer set.
// README.md explains the workloads and the metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash repobench/run.sh --workload mot32-multicast --seed 1 --seconds 25 --trace 0
//
// --regen rewrites the references from the current simulator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// slots is the number of distinct input sets per workload: --seed s
// selects slot s mod slots, so every seed has a stored reference.
const slots = 16

// buildDir holds everything a run writes (service stores, span files);
// run.sh creates it and .gitignore excludes it.
const buildDir = ".bench_build"

// workload is one benchmark workload: measure runs the untraced pass
// that yields the end-to-end metrics, trace the traced pass that yields
// the per-layer metrics. Both check every output against the slot's
// reference; in record mode they write it instead.
type workload struct {
	name    string
	measure func(r *runner) error
	trace   func(r *runner) error
}

var workloads = []workload{
	{"mot32-multicast", measureSingle, traceSingle},
	{"chiplet-multicast", measureSingle, traceSingle},
	{"paper-sweep", measureSweep, traceSweep},
	{"service-mix", measureService, traceService},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one invocation's inputs, its reference and what it
// has measured so far.
type runner struct {
	workload string
	seed     uint64
	slot     int
	budget   time.Duration
	traced   bool
	begun    time.Time

	ref    *slotRef
	record bool // regen: store outputs and counts instead of checking them

	attempted, failed int
	metrics           map[string]metric
	heap              *heapSampler
	tr                *tracer
}

func (r *runner) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// more reports whether another operation expected to take next still
// fits the budget. The first operation always runs.
func (r *runner) more(done int, next time.Duration) bool {
	return done == 0 || time.Since(r.begun)+next <= r.budget
}

// note prints one human-readable report line (standard output, before
// the result line).
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// simSeed is the simulation seed of a slot.
func simSeed(slot int) uint64 { return 2016 + uint64(slot) }

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed (slot = seed mod 16)")
	seconds := flag.Int("seconds", 25, "host seconds the measured pass runs")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	regen := flag.String("regen", "", "rewrite the named workload's references (\"all\" for every workload) into repobench/reference")
	flag.Parse()
	if *regen != "" {
		if err := regenerate(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "repobench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func run(name string, seed uint64, seconds, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	refs, err := loadRefs(name)
	if err != nil {
		return err
	}
	r := &runner{
		workload: name, seed: seed, slot: int(seed % slots),
		budget: time.Duration(seconds) * time.Second, traced: trace == 1,
		ref: &refs.Slots[seed%slots], metrics: map[string]metric{},
	}
	printRecord(r)
	r.heap = startHeapSampler()
	defer r.heap.stop()
	if r.traced {
		r.tr = newTracer()
		err = w.trace(r)
		if err == nil {
			err = r.tr.write(r)
		}
	} else {
		r.begun = time.Now()
		err = w.measure(r)
	}
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
		// A workload that does not exercise a layer reports zero for it.
		var idle []string
		for _, m := range want {
			if _, ok := r.metrics[m.Name]; !ok {
				r.set(m.Name, 0, m.Unit)
				idle = append(idle, m.Name)
			}
		}
		note("not exercised by %s (reported as 0): %s", name, strings.Join(idle, " "))
	}
	if err := checkMetricSet(r.metrics, want); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRecord prints the run record: what a later comparison needs to
// know to compare only numbers taken on the same machine.
func printRecord(r *runner) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	note("record workload=%s seed=%d slot=%d traced=%t num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		r.workload, r.seed, r.slot, r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against: it must emit exactly the declared metrics, with their units.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

func checkMetricSet(got map[string]metric, want []struct{ Name, Unit string }) error {
	var problems []string
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}
