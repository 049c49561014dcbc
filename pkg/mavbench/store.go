package mavbench

// ResultStore is a content-addressed store of campaign results, keyed by
// Spec.Hash(). Because the hash covers every knob of the canonical spec
// (including the seed) and runs are deterministic, a stored result is
// bit-identical to re-simulating — campaigns therefore serve repeated specs
// from the store without running them. Implementations must be safe for
// concurrent use; campaigns call them from every worker, and the mavbenchd
// fleet calls one store from many processes.
//
// Two implementations ship with the package: MemoryCache (in-process,
// optionally bounded) and DiskStore (persistent, one file per spec hash,
// shareable between the processes of a worker fleet).
type ResultStore interface {
	// Get returns the stored result for a spec hash.
	Get(hash string) (Result, bool)
	// Put stores a successful result under its spec hash.
	Put(hash string, res Result)
}
