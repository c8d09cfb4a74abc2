package topology

// TopologySpec is the unified description of a buildable network
// topology. The two concrete spec types (network.Spec for the MoT —
// single-die or chiplet-composed — and mesh.Spec for the 2D mesh)
// implement it, so harnesses, CLIs, and the service layer can hold "a
// topology" without committing to a concrete world. Construction stays
// with the owning package (each spec type has its own Build method);
// the interface carries everything a generic driver needs:
//
//   - Terminals: how many injection/delivery endpoints the built
//     network exposes (sources == sinks), sizing benchmarks and
//     reservation estimates;
//   - CanonicalKey: a stable, collision-free serialization of every
//     behavior-affecting field, used in engine memo keys and the
//     persistent result store.
type TopologySpec interface {
	// TopologyName is the spec's reporting name (table row label).
	TopologyName() string
	// Terminals is the number of source/sink terminal pairs.
	Terminals() int
	// Validate checks the spec for internal consistency.
	Validate() error
	// CanonicalKey serializes every behavior-affecting field.
	CanonicalKey() string
}
