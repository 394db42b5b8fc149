package core

// Backend selects the arithmetic and memory layout of the detect hot
// path (DESIGN.md §11). The public API, decision semantics, OpCount
// accounting and PreprocessStats are identical for every backend; only
// the internal number format changes.
type Backend int

const (
	// BackendComplex128 is the default scalar backend: one path at a
	// time over complex128 array-of-structs values — the bit-exact
	// reference arithmetic the conformance oracle gates.
	BackendComplex128 Backend = iota
	// BackendSoA32 is the reduced-precision backend: float32
	// structure-of-arrays planes batched across the N_PE paths
	// (internal/kernel32). The pre-processing search is shared, so both
	// backends select the same paths. Decisions match the scalar backend
	// on the conformance corpus; distances carry the documented
	// ULP-scaled tolerance. ExactSlicer detections always use the
	// scalar arithmetic regardless of backend (they are a verification
	// mode, not a hot path).
	BackendSoA32
)

// String names the backend the way CLI flags and benchmarks spell it.
func (b Backend) String() string {
	switch b {
	case BackendSoA32:
		return "soa32"
	default:
		return "complex128"
	}
}

// ParseBackend maps the CLI spelling to a Backend.
func ParseBackend(s string) (Backend, bool) {
	switch s {
	case "", "complex128", "c128":
		return BackendComplex128, true
	case "soa32", "f32", "float32":
		return BackendSoA32, true
	}
	return BackendComplex128, false
}
