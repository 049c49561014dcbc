package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"mavbench/pkg/mavbench"
)

// Coordinator shards campaigns across a Fleet of mavbenchd workers. Specs
// are deduplicated by content address (Spec.Hash) so a campaign that repeats
// a spec dispatches it once; an optional ResultStore short-circuits dispatch
// entirely for specs the fleet has already simulated.
//
// Construct with a Fleet and use Stream or Collect; the zero value of every
// other field selects a sensible default.
type Coordinator struct {
	// Fleet is the worker registry (required).
	Fleet *Fleet
	// Store, when non-nil, is consulted before dispatch and filled with
	// every successful result a worker returns, so a spec is never
	// simulated twice anywhere in the fleet. It is the fleet's only store:
	// workers need none.
	Store mavbench.ResultStore
	// Client issues the dispatch requests (default http.DefaultClient; the
	// coordinator never sets a client-level timeout — batch streams are
	// long-lived).
	Client *http.Client
	// Config tunes retry, batching and timeouts; zero values are defaults.
	Config Config
	// FallbackLocal, when set, executes specs on the local engine instead of
	// failing them whenever no healthy worker is available (fleet empty, or
	// every worker down past WaitForWorkers). A coordinator with this set is
	// never worse than a standalone server.
	FallbackLocal bool
	// LocalWorkers bounds the local engine's pool when FallbackLocal runs
	// (<= 0 = one per CPU).
	LocalWorkers int
	// Hooks, when set, observe dispatch events (for metrics). Nil funcs are
	// skipped.
	Hooks Hooks

	// sched arbitrates worker slots between concurrently running campaigns
	// (weighted fair share; see StreamJob).
	sched sched
}

// Hooks observe the coordinator's dispatch lifecycle — the seam mavbenchd
// uses to feed its /metrics endpoint without coupling this package to the
// metrics registry.
type Hooks struct {
	// BatchDone fires after every batch dispatch returns: which worker ran
	// it, how many units it held, how many completed, the batch's wall time,
	// and the dispatch error (nil when the whole batch completed).
	BatchDone func(workerID string, units, completed int, elapsed time.Duration, err error)
}

// unit is one unique spec of a campaign: the unit of dispatch, retry and
// store lookup. indexes lists every campaign position holding this spec.
type unit struct {
	spec     mavbench.Spec
	hash     string
	indexes  []int
	attempts int
}

// Stream executes specs across the fleet and returns a channel delivering
// each Result the moment it completes, in completion order — the distributed
// mirror of Campaign.Stream. The channel is buffered to len(specs), so slow
// consumers never stall dispatch. Specs that never execute (cancellation, or
// no healthy worker within WaitForWorkers after retries) either do not
// appear (cancellation, matching the local engine) or appear as failed
// Results (dispatch exhaustion).
func (co *Coordinator) Stream(ctx context.Context, specs []mavbench.Spec) <-chan mavbench.Result {
	return co.StreamJob(ctx, specs, JobOptions{})
}

// StreamJob is Stream with an explicit scheduling identity. Concurrent
// StreamJob calls on one Coordinator share the fleet under weighted fair
// scheduling: each campaign receives worker dispatches in proportion to its
// effective weight (Weight doubled per Priority level), so a long
// low-priority campaign and a short high-priority one interleave batches
// instead of the first submitter holding every worker until it finishes.
func (co *Coordinator) StreamJob(ctx context.Context, specs []mavbench.Spec, opts JobOptions) <-chan mavbench.Result {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan mavbench.Result, len(specs))
	go co.run(ctx, specs, out, opts)
	return out
}

// Collect executes specs across the fleet and blocks until done, returning
// one Result per spec in submission order — the same ordering guarantee as
// the local Campaign.Collect. Per-spec failures are joined into the returned
// error; successful results are always returned alongside it.
func (co *Coordinator) Collect(ctx context.Context, specs []mavbench.Spec) ([]mavbench.Result, error) {
	return co.CollectJob(ctx, specs, JobOptions{})
}

// CollectJob is Collect with an explicit scheduling identity (see StreamJob).
func (co *Coordinator) CollectJob(ctx context.Context, specs []mavbench.Spec, opts JobOptions) ([]mavbench.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]mavbench.Result, len(specs))
	seen := make([]bool, len(specs))
	for res := range co.StreamJob(ctx, specs, opts) {
		if res.Index >= 0 && res.Index < len(results) {
			results[res.Index] = res
			seen[res.Index] = true
		}
	}
	var errs []error
	for i := range results {
		if !seen[i] {
			err := fmt.Errorf("distrib: spec %d canceled before execution: %w", i, context.Cause(ctx))
			results[i] = mavbench.Result{
				Index:    i,
				SpecHash: specs[i].Hash(),
				Spec:     specs[i].Canonical(),
				Error:    err.Error(),
			}
		}
		if err := results[i].Err(); err != nil {
			errs = append(errs, fmt.Errorf("spec %d (%s): %w", i, results[i].Spec.Workload, err))
		}
	}
	return results, errors.Join(errs...)
}

// dedupe groups specs by content address, preserving first-occurrence order.
func dedupe(specs []mavbench.Spec) []*unit {
	byHash := map[string]*unit{}
	var units []*unit
	for i, spec := range specs {
		hash := spec.Hash()
		if u, ok := byHash[hash]; ok {
			u.indexes = append(u.indexes, i)
			continue
		}
		u := &unit{spec: spec, hash: hash, indexes: []int{i}}
		byHash[hash] = u
		units = append(units, u)
	}
	return units
}

// emit fans one unit's result out to every campaign index holding its spec.
// The out channel holds one slot per campaign spec, so sends never block.
func emit(out chan<- mavbench.Result, u *unit, res mavbench.Result) {
	for _, idx := range u.indexes {
		r := res
		r.Index = idx
		out <- r
	}
}

// dispatchOutcome reports one finished batch dispatch back to the scheduler.
type dispatchOutcome struct {
	workerID string
	units    []*unit // the full batch
	failed   []*unit // the units that did not complete
	err      error   // why the batch (partially) failed, nil on success
}

// run is the per-campaign scheduler loop: it serves store hits, then
// dispatches the remaining unique specs in batches to free healthy workers —
// arbitrated against concurrently running campaigns by the coordinator's
// weighted fair-share scheduler — requeueing the unfinished remainder of
// failed batches until every unit completes, exhausts its attempts, or the
// context is canceled.
func (co *Coordinator) run(ctx context.Context, specs []mavbench.Spec, out chan<- mavbench.Result, opts JobOptions) {
	defer close(out)
	var queue []*unit
	for _, u := range dedupe(specs) {
		if co.Store != nil {
			if hit, ok := co.Store.Get(u.hash); ok {
				hit.Cached = true
				emit(out, u, hit)
				continue
			}
		}
		queue = append(queue, u)
	}

	job := co.sched.register(opts)
	defer co.sched.unregister(job)

	outcomes := make(chan dispatchOutcome)
	inflight := 0
	ctxDone := ctx.Done() // nil for Background-like contexts: blocks forever in select
	canceled := false
	var starvedSince time.Time // first moment the queue had no worker to go to

	// Poll for fleet changes (a worker joining or heartbeating back to
	// health, or another campaign's turn ending) while work is queued with
	// nothing dispatchable.
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()

	for len(queue) > 0 || inflight > 0 {
		// Launch as many batches as the fair-share scheduler and the free
		// dispatchable workers allow.
		for len(queue) > 0 && !canceled {
			co.sched.setPending(job, len(queue))
			if !co.sched.isTurn(job) {
				break // another campaign's turn; retry on the next tick
			}
			id, url, ok := co.Fleet.acquire()
			if !ok {
				break
			}
			// Spread the remaining queue across the workers that could take
			// it right now (this one plus the still-idle ones).
			share := (len(queue) + co.Fleet.idleHealthy()) / (co.Fleet.idleHealthy() + 1)
			n := max(1, min(share, co.Config.maxBatch()))
			batch := queue[:n]
			queue = queue[n:]
			co.sched.noteDispatched(job, n)
			inflight++
			start := time.Now()
			go func() {
				failed, err := co.dispatch(ctx, url, batch, out)
				if h := co.Hooks.BatchDone; h != nil {
					h(id, len(batch), len(batch)-len(failed), time.Since(start), err)
				}
				outcomes <- dispatchOutcome{workerID: id, units: batch, failed: failed, err: err}
			}()
		}

		// Starvation only means a fleet with zero DISPATCHABLE workers:
		// healthy workers that are merely busy (another campaign, an earlier
		// batch) free up eventually, so queued work just waits for them —
		// but a fleet that is empty, all-down, or all-draining will never
		// take this queue.
		if inflight == 0 && len(queue) > 0 && !canceled && co.Fleet.DispatchableCount() == 0 {
			// Give the fleet WaitForWorkers to produce a healthy worker
			// (registration, or a down one heartbeating back), then give up
			// on dispatch for what's left.
			if starvedSince.IsZero() {
				starvedSince = time.Now()
			}
			if time.Since(starvedSince) >= co.Config.waitForWorkers() {
				if co.FallbackLocal {
					co.runLocal(ctx, queue, out)
				} else {
					for _, u := range queue {
						co.failUnit(out, u, fmt.Errorf("distrib: no healthy worker available (fleet has %d healthy, 0 dispatchable of %d registered)",
							co.Fleet.HealthyCount(), len(co.Fleet.Workers())))
					}
				}
				queue = nil
				co.sched.setPending(job, 0)
				continue
			}
		} else {
			starvedSince = time.Time{}
		}

		select {
		case oc := <-outcomes:
			inflight--
			// A batch aborted because OUR context was canceled is not the
			// worker's fault: don't mark it down or pollute its failure
			// count. (An idle-timeout abort also reads as a canceled child
			// context, but there the parent is still live — that one IS the
			// worker's fault and keeps counting.)
			workerFault := oc.err != nil && !canceled && ctx.Err() == nil
			co.Fleet.release(oc.workerID, len(oc.units), len(oc.units)-len(oc.failed), workerFault)
			if canceled {
				continue // drop requeues, just drain
			}
			for _, u := range oc.failed {
				u.attempts++
				if u.attempts >= co.Config.maxAttempts() {
					co.failUnit(out, u, fmt.Errorf("distrib: spec failed on %d workers, last error: %w", u.attempts, oc.err))
					continue
				}
				queue = append(queue, u)
			}
		case <-ctxDone:
			// Stop launching and requeueing; in-flight dispatches see the
			// same cancellation and drain quickly. Like the local engine,
			// never-started specs simply do not appear on the stream.
			canceled = true
			ctxDone = nil // a closed channel would otherwise spin this select
			queue = nil
			co.sched.setPending(job, 0)
		case <-ticker.C:
		}
	}
}

// runLocal executes the remaining units on the in-process engine — the
// FallbackLocal path when the fleet has starved. Blocking here is fine: the
// scheduler only reaches it with nothing in flight. Results flow through the
// same store and emit path as dispatched ones.
func (co *Coordinator) runLocal(ctx context.Context, units []*unit, out chan<- mavbench.Result) {
	specs := make([]mavbench.Spec, len(units))
	for i, u := range units {
		specs[i] = u.spec
	}
	eng := mavbench.NewCampaign(specs...).SetWorkers(co.LocalWorkers)
	if co.Store != nil {
		eng.SetStore(co.Store)
	}
	for res := range eng.Stream(ctx) {
		if res.Index < 0 || res.Index >= len(units) {
			continue
		}
		emit(out, units[res.Index], res)
	}
	// Specs canceled before starting simply do not appear, matching the
	// dispatched paths' cancellation semantics.
}

// failUnit emits a failed Result for every campaign index of u.
func (co *Coordinator) failUnit(out chan<- mavbench.Result, u *unit, err error) {
	emit(out, u, mavbench.Result{
		SpecHash: u.hash,
		Spec:     u.spec.Canonical(),
		Error:    err.Error(),
	})
}

// RunRequest is the POST /v1/run wire body — the batch the coordinator
// dispatches and the worker executes. The server and client packages share
// this type so the endpoint cannot silently desynchronize.
type RunRequest struct {
	Specs []mavbench.Spec `json:"specs"`
}

// dispatch sends one batch to the worker at baseURL and streams its NDJSON
// results, emitting each completed unit's result (and storing successes) as
// lines arrive. It returns the units that did not complete and the reason.
func (co *Coordinator) dispatch(ctx context.Context, baseURL string, units []*unit, out chan<- mavbench.Result) (failed []*unit, err error) {
	specs := make([]mavbench.Spec, len(units))
	for i, u := range units {
		specs[i] = u.spec
	}
	body, err := json.Marshal(RunRequest{Specs: specs})
	if err != nil {
		return units, fmt.Errorf("encoding batch: %w", err)
	}

	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Idle timeout: a worker that stops producing results (wedged, or its
	// network silently gone) gets its request canceled, which requeues the
	// remainder. Reset on every line.
	var idle *time.Timer
	if d := co.Config.resultTimeout(); d > 0 {
		idle = time.AfterFunc(d, cancel)
		defer idle.Stop()
	}

	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, baseURL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return units, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := co.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return units, fmt.Errorf("dispatching batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return units, fmt.Errorf("worker returned %s: %s", resp.Status, DecodeErrorBody(resp.Body))
	}

	done := make([]bool, len(units))
	completed := 0
	br := bufio.NewReader(resp.Body)
	for completed < len(units) {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if idle != nil {
				idle.Reset(co.Config.resultTimeout())
			}
			var res mavbench.Result
			if uerr := json.Unmarshal(line, &res); uerr != nil {
				err = fmt.Errorf("bad result line from worker: %w", uerr)
				break
			}
			if res.Index < 0 || res.Index >= len(units) || done[res.Index] {
				err = fmt.Errorf("worker returned out-of-protocol result index %d", res.Index)
				break
			}
			u := units[res.Index]
			done[res.Index] = true
			completed++
			if co.Store != nil && res.OK() {
				co.Store.Put(u.hash, res)
			}
			emit(out, u, res)
		}
		if rerr != nil {
			if completed < len(units) {
				err = fmt.Errorf("worker stream ended early after %d/%d results: %w", completed, len(units), rerr)
			}
			break
		}
	}
	if err == nil && completed == len(units) {
		return nil, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	for i, u := range units {
		if !done[i] {
			failed = append(failed, u)
		}
	}
	return failed, err
}

// DecodeErrorBody extracts the service's uniform {"error": ...} message
// from an error response body, falling back to the raw (trimmed) text. It
// reads at most 4 KiB. Shared by the coordinator, the worker join loop and
// the HTTP client.
func DecodeErrorBody(r io.Reader) string {
	buf, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(buf, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(buf))
}

// SortByIndex orders results by campaign index in place — handy for clients
// that collected a completion-ordered stream and want submission order.
func SortByIndex(results []mavbench.Result) {
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
}
