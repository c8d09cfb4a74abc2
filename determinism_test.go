package asyncnoc_test

import (
	"bytes"
	"fmt"
	"testing"

	"asyncnoc"
)

// A run is a pure function of its (spec, config) pair: repeating it, or
// running it untraced, must give byte-identical results, and repeating
// it traced must give a byte-identical JSONL trace. This pins that
// contract across every architecture and routing strategy. The test
// name is kept from when the repeats ran on a sharded kernel.

func shardDetCfg(n int) asyncnoc.RunConfig {
	return asyncnoc.RunConfig{
		Bench:   asyncnoc.MulticastFraction(n, 0.10),
		LoadGFs: 0.4,
		Seed:    2016,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   300 * asyncnoc.Nanosecond,
	}
}

// tracedRun executes one instrumented run and returns the result plus
// the full JSONL trace.
func tracedRun(t *testing.T, spec asyncnoc.NetworkSpec) (asyncnoc.RunResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg := shardDetCfg(spec.N)
	cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &buf}}
	res, err := asyncnoc.Run(spec, cfg)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res, buf.Bytes()
}

func TestShardDeterminismAcrossArchitecturesAndStrategies(t *testing.T) {
	const n = 8
	var specs []asyncnoc.NetworkSpec
	for _, spec := range asyncnoc.AllNetworks(n) {
		specs = append(specs, spec)
		for _, strat := range asyncnoc.StrategyNames() {
			specs = append(specs, asyncnoc.WithStrategy(spec, strat))
		}
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			wantRes, wantTrace := tracedRun(t, spec)
			if len(wantTrace) == 0 {
				t.Fatal("reference run produced an empty trace")
			}
			gotRes, gotTrace := tracedRun(t, spec)
			if gotRes != wantRes {
				t.Errorf("repeated run diverged:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("repeated run's trace differs (%d vs %d bytes): %s",
					len(gotTrace), len(wantTrace), firstTraceDiff(gotTrace, wantTrace))
			}
			plain, err := asyncnoc.Run(spec, shardDetCfg(spec.N))
			if err != nil {
				t.Fatal(err)
			}
			if plain != wantRes {
				t.Errorf("untraced run diverged from traced:\n got %+v\nwant %+v", plain, wantRes)
			}
		})
	}
}

// firstTraceDiff points at the first JSONL line where two traces part.
func firstTraceDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(g), len(w))
}
