package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mavbench/internal/sim"
	"mavbench/pkg/mavbench"
)

// pass is one flight of every mission in a spec list.
type pass struct {
	wall    time.Duration   // without the reference kernel's share
	kernel  time.Duration   // the reference kernel's share of the elapsed time
	latency []time.Duration // per mission, in spec order
	refMs   []float64       // the reference kernel's time before each mission
	results []mavbench.Result
}

// runPass flies specs in a closed loop: each of clients goroutines runs one
// mission at a time, taking the next spec as soon as its previous mission
// returns. Before each mission the client times the reference kernel.
func runPass(ctx context.Context, specs []mavbench.Spec, clients int, wc *mavbench.WorldCache) pass {
	p := pass{latency: make([]time.Duration, len(specs)), refMs: make([]float64, len(specs)), results: make([]mavbench.Result, len(specs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	kernel := make([]time.Duration, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				p.refMs[i] = referenceMs()
				t1 := time.Now()
				kernel[c] += t1.Sub(t0)
				// Per-mission errors are kept in the Result and counted as failures.
				res, _ := mavbench.NewCampaign(specs[i]).SetWorldCache(wc).Collect(ctx)
				p.latency[i] = time.Since(t1)
				p.results[i] = res[0]
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, k := range kernel {
		p.kernel += k
	}
	p.kernel /= time.Duration(clients)
	p.wall = elapsed - p.kernel
	return p
}

// scale converts the pass's host times to the reference speed.
func (p pass) scale() float64 { return refNominalMs / quantile(p.refMs, 0.5) }

// failures counts the missions whose Result carries an error. Simulated
// collisions and timeouts are outcomes, not failures.
func (p pass) failures() int {
	n := 0
	for _, r := range p.results {
		if r.Error != "" {
			n++
		}
	}
	return n
}

// outcomes returns each mission's Report and VehicleReports as JSON, in spec
// order, and the outcome digest: the SHA-256 of their concatenation.
func (p pass) outcomes() ([][]byte, string, error) {
	out := make([][]byte, len(p.results))
	h := sha256.New()
	for i, r := range p.results {
		b, err := json.Marshal(struct {
			Report         mavbench.Report
			VehicleReports []mavbench.Report
		}{r.Report, r.VehicleReports})
		if err != nil {
			return nil, "", fmt.Errorf("encoding mission %d: %w", i, err)
		}
		out[i] = b
		h.Write(b)
	}
	return out, hex.EncodeToString(h.Sum(nil)), nil
}

// tracedPass is one traced flight of every mission, with the ledger totals
// and the executor counters of every simulator it set up.
type tracedPass struct {
	pass
	ns        [numClasses]time.Duration
	events    [numClasses]int64
	jobs      uint64
	queueWait time.Duration // simulated
	dropped   uint64        // depth frames dropped by full subscriber queues
}

// runTracedPass flies every mission once, one at a time, through the traced
// wrapper workloads and a fresh world cache.
func runTracedPass(ctx context.Context, specs []mavbench.Spec) (tracedPass, error) {
	registerTracedWorkloads()
	wc := mavbench.NewWorldCache()
	tp := tracedPass{pass: pass{latency: make([]time.Duration, len(specs)), results: make([]mavbench.Result, len(specs))}}
	for i, spec := range specs {
		spec.Workload += tracedSuffix
		if err := spec.Validate(); err != nil {
			return tp, err
		}
		l := newLedger()
		start := l.last
		activeLedger.Store(l)
		res, _ := mavbench.NewCampaign(spec).SetWorldCache(wc).Collect(ctx)
		l.finish()
		activeLedger.Store(nil)
		tp.latency[i] = l.last.Sub(start)
		tp.wall += tp.latency[i]
		tp.results[i] = res[0]
		for c := range l.ns {
			tp.ns[c] += l.ns[c]
			tp.events[c] += l.events[c]
		}
		for _, s := range l.sims {
			ex := s.Graph().Executor()
			tp.jobs += ex.JobsRun()
			tp.queueWait += ex.TotalQueueWait()
			tp.dropped += s.Graph().Topic(sim.TopicDepthImage).Dropped()
		}
	}
	return tp, nil
}
