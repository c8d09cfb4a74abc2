// Package cliflags holds the flag definitions and the -topology parser
// shared by the command-line tools (motsim, experiments, loadsweep,
// replay). Every tool registers the same flag names with the same help
// strings and reports the same parse errors, so workflows transfer
// between tools verbatim.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"asyncnoc"
)

// N registers the shared -n flag: the MoT die radix.
func N() *int {
	return flag.Int("n", 8, "MoT radix (power of two)")
}

// Workers registers the shared -workers flag; purpose names what the
// pool parallelizes (e.g. "simulation", "saturation-search").
func Workers(purpose string) *int {
	return flag.Int("workers", 0,
		purpose+" parallelism (0 = $ASYNCNOC_WORKERS or GOMAXPROCS)")
}

// Dests registers the shared -dests flag for fixed destination sets.
func Dests() *string {
	return flag.String("dests", "", "fixed destination set, e.g. 1,3,5 (overrides -bench)")
}

// TopologyFlag registers the shared -topology flag.
func TopologyFlag() *string {
	return flag.String("topology", "mot",
		"topology: mot (one MoT die), mesh:WxH (synchronous mesh of trees), or chiplet:WxH (WxH interposer mesh of MoT dies)")
}

// Topology is a parsed -topology selection.
type Topology struct {
	// Kind is "mot", "mesh", or "chiplet".
	Kind string
	// W and H are the mesh dimensions (mesh and chiplet kinds only).
	W, H int
}

// ParseTopology parses a -topology value. The grammar and the error
// message are shared by every tool. Both dimensions must be plain
// positive decimal integers and nothing may follow them.
func ParseTopology(s string) (Topology, error) {
	bad := func() (Topology, error) {
		return Topology{}, fmt.Errorf("bad -topology %q (want mot, mesh:WxH, or chiplet:WxH)", s)
	}
	if s == "" || s == "mot" {
		return Topology{Kind: "mot"}, nil
	}
	kind, dims, ok := strings.Cut(s, ":")
	if !ok || (kind != "mesh" && kind != "chiplet") {
		return bad()
	}
	ws, hs, _ := strings.Cut(dims, "x")
	w, okW := parseDim(ws)
	h, okH := parseDim(hs)
	if !okW || !okH {
		return bad()
	}
	return Topology{Kind: kind, W: w, H: h}, nil
}

// parseDim parses one mesh dimension: decimal digits only (no sign, no
// spaces) with a value of at least 1.
func parseDim(s string) (int, bool) {
	if s == "" || strings.TrimLeft(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 1
}

// Compose applies a chiplet selection to a single-die spec. For "mot"
// the spec passes through; for "mesh" the caller must dispatch to the
// mesh runner instead (see MeshSpec).
func (t Topology) Compose(spec asyncnoc.NetworkSpec) asyncnoc.NetworkSpec {
	if t.Kind == "chiplet" {
		return asyncnoc.WithChiplet(spec, asyncnoc.ChipletSerial(t.W, t.H))
	}
	return spec
}

// Bench resolves a benchmark reporting name against the selection: the
// chiplet kind needs the hierarchical wide benchmarks, and a mesh's
// destination space is its W*H tiles rather than the die radix.
func (t Topology) Bench(n int, name string) (asyncnoc.Benchmark, error) {
	switch t.Kind {
	case "chiplet":
		return asyncnoc.ChipletBenchmarkByName(asyncnoc.ChipletSerial(t.W, t.H), n, name)
	case "mesh":
		return asyncnoc.BenchmarkByName(t.W*t.H, name)
	}
	return asyncnoc.BenchmarkByName(n, name)
}

// MeshSpec returns the synchronous mesh spec of a "mesh" selection.
func (t Topology) MeshSpec() asyncnoc.MeshSpec {
	return asyncnoc.MeshTree(t.W, t.H)
}
