package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// refDir holds one reference file per workload, relative to the
// repository root.
var refDir = filepath.Join("repobench", "reference")

// refFile is a workload's stored reference: for every slot, the digest
// of every simulated output and the value of every exact work counter.
type refFile struct {
	Workload string    `json:"workload"`
	Slots    []slotRef `json:"slots"`
}

type slotRef struct {
	Slot    int    `json:"slot"`
	SimSeed uint64 `json:"sim_seed"`
	// Outputs maps an output's label to the SHA-256 of its JSON
	// encoding. encoding/json writes floats in shortest round-trip
	// form, so equal digests mean every field, floats included, is
	// bit-identical.
	Outputs map[string]string `json:"outputs"`
	// Counts are the exact work counters: a pure function of the
	// inputs, so any difference is a determinism failure.
	Counts map[string]int64 `json:"counts"`
}

func refPath(name string) string { return filepath.Join(refDir, name+".json") }

func loadRefs(name string) (*refFile, error) {
	data, err := os.ReadFile(refPath(name))
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", name, err)
	}
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", name, err)
	}
	if len(f.Slots) != slots {
		return nil, fmt.Errorf("reference for %s has %d slots, want %d", name, len(f.Slots), slots)
	}
	return &f, nil
}

// checkOutput compares one simulated output, every field of it, with
// the reference. In record mode a label seen for the first time is
// stored instead. It reports whether the output matched.
func (r *runner) checkOutput(label string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return r.mismatch("%s: cannot encode output: %v", label, err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	want, ok := r.ref.Outputs[label]
	if !ok && r.record {
		r.ref.Outputs[label] = got
		return true
	}
	if got != want {
		return r.mismatch("%s: output differs from the reference: %s", label, data)
	}
	return true
}

// checkCount compares one exact work counter with the reference.
func (r *runner) checkCount(name string, got int64) bool {
	want, ok := r.ref.Counts[name]
	if !ok && r.record {
		r.ref.Counts[name] = got
		return true
	}
	if got != want {
		return r.mismatch("determinism: %s = %d, reference %d", name, got, want)
	}
	return true
}

// mismatch reports one failed check on standard error and returns false.
func (r *runner) mismatch(format string, args ...any) bool {
	fmt.Fprintf(os.Stderr, "repobench: %s slot %d: %s\n", r.workload, r.slot, fmt.Sprintf(format, args...))
	return false
}

// regenerate recomputes the references of one workload, or of all of
// them for "all".
func regenerate(name string) error {
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		return regenerateOne(w)
	}
	for _, w := range workloads {
		if err := regenerateOne(w); err != nil {
			return err
		}
	}
	return nil
}

// regenerateOne records every slot of one workload: one operation of
// the measured pass in record mode, then the traced pass, which must
// reproduce every recorded output and count.
func regenerateOne(w workload) error {
	f := refFile{Workload: w.name, Slots: make([]slotRef, slots)}
	for s := range f.Slots {
		f.Slots[s] = slotRef{Slot: s, SimSeed: simSeed(s), Outputs: map[string]string{}, Counts: map[string]int64{}}
		r := &runner{
			workload: w.name, seed: uint64(s), slot: s, ref: &f.Slots[s], record: true,
			metrics: map[string]metric{}, heap: startHeapSampler(), begun: time.Now(),
		}
		err := w.measure(r)
		if err == nil {
			r.tr = newTracer()
			err = w.trace(r)
		}
		r.heap.stop()
		if err != nil {
			return fmt.Errorf("%s slot %d: %w", w.name, s, err)
		}
		if r.failed > 0 {
			return fmt.Errorf("%s slot %d: %d operations failed while recording", w.name, s, r.failed)
		}
		fmt.Fprintf(os.Stderr, "repobench: recorded %s slot %d\n", w.name, s)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath(w.name), append(data, '\n'), 0o644)
}
