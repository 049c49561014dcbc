package mavbench

import (
	"context"
	"errors"
	"fmt"

	"mavbench/internal/core"
)

// Result is the outcome of one campaign run: the canonical spec that ran,
// its content address, and either a quality-of-flight report or an error.
type Result struct {
	// Index is the spec's position in the campaign (results stream in
	// completion order; Index recovers submission order).
	Index int `json:"index"`
	// SpecHash is the canonical spec's content address (Spec.Hash).
	SpecHash string `json:"spec_hash"`
	// Spec is the canonical (defaults-filled) form of the spec that ran.
	Spec Spec `json:"spec"`
	// Platform names the simulated companion computer.
	Platform string `json:"platform,omitempty"`
	// Report is the quality-of-flight summary (zero when Error is set). For
	// multi-vehicle runs it is the fleet aggregate across VehicleReports.
	Report Report `json:"report"`
	// VehicleReports holds the per-drone reports of a multi-vehicle run in
	// vehicle-index order (nil for classic single-drone runs); Report is then
	// their aggregate. See docs/MULTIVEHICLE.md for the merge semantics.
	VehicleReports []Report `json:"vehicle_reports,omitempty"`
	// Error is set when the run failed, panicked, or was rejected by
	// validation; it serializes so failed runs stay visible on the wire.
	Error string `json:"error,omitempty"`
	// Cached marks results served from a content-addressed cache instead of
	// a fresh simulation.
	Cached bool `json:"cached,omitempty"`

	err error
}

// Err returns the run's error, nil on success. It survives JSON round-trips
// via the Error string.
func (r Result) Err() error {
	switch {
	case r.err != nil:
		return r.err
	case r.Error != "":
		return errors.New(r.Error)
	}
	return nil
}

// OK reports whether the run produced a report.
func (r Result) OK() bool { return r.Err() == nil }

// Campaign is a batch of specs executed together on the parallel runner.
// Configure it with the chainable setters, then consume results with Stream
// (incremental) or Collect (blocking, spec order).
type Campaign struct {
	specs   []Spec
	workers int
	cache   ResultStore

	worldCache    *WorldCache
	worldCacheSet bool
}

// NewCampaign builds a campaign over the given specs. Specs are not
// re-validated here; invalid specs (possible when a Spec was assembled by
// hand rather than through NewSpec) surface as failed Results.
func NewCampaign(specs ...Spec) *Campaign {
	return &Campaign{specs: append([]Spec(nil), specs...)}
}

// SetWorkers bounds the number of concurrently executing runs
// (<= 0 selects one worker per CPU). Returns the campaign for chaining.
func (c *Campaign) SetWorkers(n int) *Campaign {
	c.workers = n
	return c
}

// SetStore installs a content-addressed result store: specs whose hash is
// already stored are served without re-simulating, and fresh successful
// results are stored. Returns the campaign for chaining.
func (c *Campaign) SetStore(store ResultStore) *Campaign {
	c.cache = store
	return c
}

// SetWorldCache overrides the campaign's world cache: worlds are built once
// per world-hash and every run receives a deep clone (results stay
// bit-identical; see WorldCache). Campaigns that never call this share the
// process-wide DefaultWorldCache; passing nil disables world caching for
// this campaign entirely. Returns the campaign for chaining.
func (c *Campaign) SetWorldCache(wc *WorldCache) *Campaign {
	c.worldCache = wc
	c.worldCacheSet = true
	return c
}

// effectiveWorldCache resolves the campaign's world cache (nil = disabled).
func (c *Campaign) effectiveWorldCache() *WorldCache {
	if c.worldCacheSet {
		return c.worldCache
	}
	return DefaultWorldCache()
}

// Len returns the number of specs in the campaign.
func (c *Campaign) Len() int { return len(c.specs) }

// Specs returns a copy of the campaign's specs in submission order.
func (c *Campaign) Specs() []Spec { return append([]Spec(nil), c.specs...) }

// Stream executes the campaign and returns a channel that delivers each
// Result the moment its run completes, in completion order. The channel is
// closed once every run has finished or the context is canceled; runs that
// never started due to cancellation simply never appear on the channel (use
// Collect to have them surfaced as failed Results). Seeds are fixed per
// spec before execution, so the set of delivered results is identical at
// any worker count — only the arrival order varies.
//
// The channel is buffered to the campaign size, so a consumer that stops
// receiving early leaks nothing: remaining runs finish, park their results
// in the buffer and the goroutines exit.
func (c *Campaign) Stream(ctx context.Context) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan Result, len(c.specs))
	specs := c.Specs()
	runner := core.Runner{Workers: c.workers}
	go func() {
		defer close(out)
		// Parallel recovers per-task panics; runOne additionally recovers
		// engine panics itself so the Result is still delivered.
		_ = runner.Parallel(ctx, len(specs), func(i int) error {
			// The buffer holds one slot per spec, so this send never blocks
			// — and never races a concurrent cancellation into dropping a
			// result that was actually computed.
			out <- c.runOne(i, specs[i])
			return nil
		})
	}()
	return out
}

// runOne executes (or serves from cache) a single spec.
func (c *Campaign) runOne(index int, spec Spec) (res Result) {
	canonical := spec.Canonical()
	hash := spec.Hash()
	res = Result{Index: index, SpecHash: hash, Spec: canonical}
	defer func() {
		if rec := recover(); rec != nil {
			res.err = fmt.Errorf("mavbench: run panicked: %v", rec)
			res.Error = res.err.Error()
			res.Report = Report{}
		}
	}()
	if err := spec.Validate(); err != nil {
		res.err = err
		res.Error = err.Error()
		return res
	}
	if c.cache != nil {
		if hit, ok := c.cache.Get(hash); ok {
			hit.Index = index
			hit.Cached = true
			return hit
		}
	}
	runRes, err := core.RunWithCache(spec.params(), c.effectiveWorldCache().engine())
	if err != nil {
		res.err = err
		res.Error = err.Error()
		return res
	}
	res.Platform = runRes.PlatformName
	res.Report = runRes.Report
	res.VehicleReports = runRes.VehicleReports
	if c.cache != nil {
		c.cache.Put(hash, res)
	}
	return res
}

// Collect executes the campaign and blocks until every run has completed,
// returning one Result per spec in submission order. Per-run failures are
// joined into the returned error; successful results are always returned
// alongside it. Cancellation marks the unexecuted runs' Results failed.
func (c *Campaign) Collect(ctx context.Context) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(c.specs))
	seen := make([]bool, len(c.specs))
	for res := range c.Stream(ctx) {
		if res.Index >= 0 && res.Index < len(results) {
			results[res.Index] = res
			seen[res.Index] = true
		}
	}
	var errs []error
	for i := range results {
		if !seen[i] {
			err := fmt.Errorf("mavbench: spec %d canceled before execution: %w", i, context.Cause(ctx))
			results[i] = Result{
				Index:    i,
				SpecHash: c.specs[i].Hash(),
				Spec:     c.specs[i].Canonical(),
				Error:    err.Error(),
				err:      err,
			}
		}
		if err := results[i].Err(); err != nil {
			errs = append(errs, fmt.Errorf("spec %d (%s): %w", i, results[i].Spec.Workload, err))
		}
	}
	return results, errors.Join(errs...)
}

// Run executes a single spec and returns its result. It is the one-shot
// convenience over a one-spec Campaign.
func Run(ctx context.Context, spec Spec) (Result, error) {
	results, _ := NewCampaign(spec).Collect(ctx)
	res := results[0]
	return res, res.Err()
}
