// Command replay runs an explicit traffic schedule (a recorded or
// hand-crafted workload) through one of the networks and reports the
// measurements of every injected packet.
//
// The schedule is CSV with one injection per line:
//
//	time_ns,src,dest[,dest...]
//	0.0,2,5
//	1.5,0,1,4,6
//
// Example:
//
//	replay -network OptHybridSpeculative -file workload.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"asyncnoc"
	"asyncnoc/internal/cliflags"
)

func main() {
	var (
		networkName = flag.String("network", "OptHybridSpeculative", "network architecture")
		topology    = cliflags.TopologyFlag()
		n           = cliflags.N()
		file        = flag.String("file", "", "CSV schedule file (time_ns,src,dest[,dest...])")
		drain       = flag.Int("drain", 2000, "extra simulated time after the last injection (ns)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *file == "" {
		fatal(fmt.Errorf("need -file"))
	}
	// Flat schedules address one die's terminal space; composed and mesh
	// topologies have no schedule format (see core.RunSchedule).
	if sel, err := cliflags.ParseTopology(*topology); err != nil {
		fatal(err)
	} else if sel.Kind != "mot" {
		fatal(fmt.Errorf("replay supports only -topology mot; a %s schedule has no CSV format", sel.Kind))
	}
	if *cpuProf != "" {
		stop, err := asyncnoc.StartCPUProfile(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer stop() //nolint:errcheck
	}
	if *memProf != "" {
		defer func() {
			if err := asyncnoc.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "replay:", err)
			}
		}()
	}
	spec, err := asyncnoc.NetworkByName(*n, *networkName)
	if err != nil {
		fatal(err)
	}
	sched, err := parseSchedule(*file, *n)
	if err != nil {
		fatal(err)
	}
	res, err := asyncnoc.RunSchedule(spec, sched, asyncnoc.Time(*drain)*asyncnoc.Nanosecond)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network:        %s\n", res.Network)
	fmt.Printf("packets:        %d\n", res.MeasuredPackets)
	fmt.Printf("avg latency:    %.2f ns\n", res.AvgLatencyNs)
	fmt.Printf("p95 latency:    %.2f ns\n", res.P95LatencyNs)
	fmt.Printf("completion:     %.1f%%\n", 100*res.Completion)
	fmt.Printf("network power:  %.2f mW\n", res.PowerMW)
}

// parseSchedule reads and validates the CSV workload format against a
// network of n terminals. Every malformed row is reported with its file
// position so truncated or corrupt recordings fail with a usable message
// instead of a downstream panic or a silently empty destination set.
// Destination cells go through the shared validated parser, so duplicate
// destinations in a row are rejected rather than silently deduplicated.
func parseSchedule(path string, n int) (asyncnoc.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1 // variable destination counts
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: malformed CSV: %w", path, err)
	}
	var sched asyncnoc.Schedule
	for i, row := range rows {
		if len(row) < 3 {
			return nil, fmt.Errorf("%s:%d: need time_ns,src,dest[,dest...], got %d field(s) (truncated row?)",
				path, i+1, len(row))
		}
		tns, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad time %q: %v", path, i+1, row[0], err)
		}
		if tns < 0 {
			return nil, fmt.Errorf("%s:%d: negative time %v ns", path, i+1, tns)
		}
		src, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad source %q: %v", path, i+1, row[1], err)
		}
		if src < 0 || src >= n {
			return nil, fmt.Errorf("%s:%d: source %d outside [0,%d)", path, i+1, src, n)
		}
		dests, err := asyncnoc.ParseDests(strings.Join(row[2:], ","), n)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		sched = append(sched, asyncnoc.Injection{
			At:    asyncnoc.Time(tns * 1000),
			Src:   src,
			Dests: dests,
		})
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("%s: empty schedule", path)
	}
	return sched, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
