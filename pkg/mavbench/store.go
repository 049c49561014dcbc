package mavbench

// ResultStore is a content-addressed store of campaign results, keyed by
// Spec.Hash(). Because the hash covers every knob of the canonical spec
// (including the seed) and runs are deterministic, a stored result is
// bit-identical to re-simulating — campaigns therefore serve repeated specs
// from the store without running them. Implementations must be safe for
// concurrent use; campaigns call them from every worker.
//
// MemoryCache (in-process, optionally bounded) ships with this package; the
// persistent implementation is the segment store in
// mavbench/pkg/mavbench/resultdb, which a mavbenchd fleet keeps at its
// coordinator only.
type ResultStore interface {
	// Get returns the stored result for a spec hash.
	Get(hash string) (Result, bool)
	// Put stores a successful result under its spec hash.
	Put(hash string, res Result)
}
