package core

import (
	"fmt"

	"asyncnoc/internal/network"
)

// Instrument observes one simulation run. Attach hooks the instrument
// onto the built network before any event runs (chaining the network's
// Trace callback, adding meters, opening output streams); Finish runs
// after the simulation completes and flushes whatever the instrument
// buffered.
//
// Instruments ride along in RunConfig.Instruments, so every run entry
// point (Run, RunContext, Engine.Run, RunSeeds, ...) can produce VCD
// waveforms, JSONL traces, or utilization counters without the caller
// dropping down to Build/Collect. Concrete implementations live next to
// what they observe: network.VCDInstrument, network.UtilizationInstrument,
// obs.TraceInstrument.
//
// An instrumented run is never memoized: the engine executes it fresh so
// the instrument observes a real simulation rather than a cached result.
type Instrument interface {
	// Attach hooks the instrument onto the built network before the run.
	Attach(nw *network.Network) error
	// Finish completes the instrument after the run (flush, close).
	Finish() error
}

// attachInstruments hooks every instrument onto the network, in order.
func attachInstruments(nw *network.Network, ins []Instrument) error {
	for _, i := range ins {
		if err := i.Attach(nw); err != nil {
			return fmt.Errorf("core: attach instrument %T: %w", i, err)
		}
	}
	return nil
}

// finishInstruments completes every instrument, in order, returning the
// first error but finishing all of them regardless.
func finishInstruments(ins []Instrument) error {
	var first error
	for _, i := range ins {
		if err := i.Finish(); err != nil && first == nil {
			first = fmt.Errorf("core: finish instrument %T: %w", i, err)
		}
	}
	return first
}
