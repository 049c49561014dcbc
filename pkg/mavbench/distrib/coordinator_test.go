package distrib_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/distrib"
	"mavbench/pkg/mavbench/server"
)

// distribWorkloadSeq makes registered workload names unique per test run so
// the package survives -count=N (the registry panics on duplicate names and
// persists across runs in one process), and so each run gets fresh gate
// channels and call counters.
var distribWorkloadSeq atomic.Int64

func uniqueDistribWorkload(prefix string) string {
	return fmt.Sprintf("%s_%d", prefix, distribWorkloadSeq.Add(1))
}

// fleetWorkload is a one-simulated-second workload for fleet tests. calls
// counts World invocations (i.e. actual simulations); when gateOnce is
// non-nil the first invocation blocks on it.
type fleetWorkload struct {
	name     string
	gateOnce chan struct{}
	calls    atomic.Int64
}

func (w *fleetWorkload) Name() string        { return w.name }
func (w *fleetWorkload) Description() string { return "fake workload for distrib tests" }
func (w *fleetWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	if w.calls.Add(1) == 1 && w.gateOnce != nil {
		<-w.gateOnce
	}
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *fleetWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "fleet/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

// startWorker runs a real mavbenchd server as a fleet worker.
func startWorker(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func specsFor(workload string, n int) []mavbench.Spec {
	specs := make([]mavbench.Spec, n)
	for i := range specs {
		specs[i] = mavbench.Spec{Workload: workload, Seed: int64(i + 1), MaxMissionTimeS: 30}
	}
	return specs
}

// marshalNormalized renders results for equality comparison: the Cached flag
// is scheduling-dependent (which store served what), everything else — spec,
// content address, platform, full report — must match bit for bit.
func marshalNormalized(t *testing.T, results []mavbench.Result) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, res := range results {
		res.Cached = false
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(buf)
	}
	return out
}

// TestFleetVsLocalEquivalence is the distributed-correctness pin: the same
// campaign — including a repeated spec, exercising hash-keyed dedupe —
// sharded across two real workers produces results bit-identical to the
// local engine, in the same (submission) order.
func TestFleetVsLocalEquivalence(t *testing.T) {
	wl := &fleetWorkload{name: uniqueDistribWorkload("distrib_equiv")}
	core.Register(wl)
	specs := specsFor(wl.name, 5)
	specs = append(specs, specs[2]) // repeated spec: one dispatch, two results

	local, err := mavbench.NewCampaign(specs...).Collect(context.Background())
	if err != nil {
		t.Fatalf("local campaign: %v", err)
	}

	w1 := startWorker(t, server.Config{Workers: 2})
	w2 := startWorker(t, server.Config{Workers: 2})
	fleet := distrib.NewFleet(distrib.Config{})
	fleet.Register(w1.URL)
	fleet.Register(w2.URL)
	co := &distrib.Coordinator{Fleet: fleet, Config: distrib.Config{}}

	remote, err := co.Collect(context.Background(), specs)
	if err != nil {
		t.Fatalf("distributed campaign: %v", err)
	}
	if len(remote) != len(specs) {
		t.Fatalf("distributed campaign returned %d results for %d specs", len(remote), len(specs))
	}

	wantJSON := marshalNormalized(t, local)
	gotJSON := marshalNormalized(t, remote)
	for i := range wantJSON {
		if gotJSON[i] != wantJSON[i] {
			t.Errorf("result %d differs between fleet and local:\n fleet: %s\n local: %s", i, gotJSON[i], wantJSON[i])
		}
	}

	// The campaign was actually sharded: both workers took dispatches.
	for _, st := range fleet.Workers() {
		if st.Dispatched == 0 {
			t.Errorf("worker %s (%s) never received a batch", st.ID, st.URL)
		}
		if st.Failures != 0 {
			t.Errorf("worker %s recorded %d failures", st.ID, st.Failures)
		}
	}
}

// TestCoordinatorRequeuesOnWorkerDeath kills the worker holding a batch
// mid-campaign and requires the remainder to complete on the surviving
// worker — the fleet's central failure-semantics pin.
func TestCoordinatorRequeuesOnWorkerDeath(t *testing.T) {
	wl := &fleetWorkload{name: uniqueDistribWorkload("distrib_requeue"), gateOnce: make(chan struct{})}
	core.Register(wl)

	// Each worker gets its own world cache, as separate worker processes
	// would. Sharing the process-wide default, the survivor would wait on
	// the wedged worker's build of the same world instead of building it.
	w1 := startWorker(t, server.Config{Workers: 1, WorldCache: mavbench.NewWorldCache()})
	w2 := startWorker(t, server.Config{Workers: 1, WorldCache: mavbench.NewWorldCache()})
	// Free the gated first run at the end so the orphaned engine goroutine
	// on the killed worker can finish before the httptest servers close.
	gateReleased := false
	releaseGate := func() {
		if !gateReleased {
			gateReleased = true
			close(wl.gateOnce)
		}
	}
	t.Cleanup(releaseGate)

	fleet := distrib.NewFleet(distrib.Config{HeartbeatTTL: time.Minute})
	fleet.Register(w1.URL)
	fleet.Register(w2.URL)
	co := &distrib.Coordinator{Fleet: fleet, Config: distrib.Config{HeartbeatTTL: time.Minute}}

	// Two unique specs across two workers: one batch each. The first World()
	// call fleet-wide blocks, wedging whichever worker got that spec.
	specs := specsFor(wl.name, 2)
	stream := co.Stream(context.Background(), specs)

	// The unblocked spec completes first; its worker goes idle, leaving
	// exactly one worker busy — the wedged one. Kill it.
	var first mavbench.Result
	select {
	case first = <-stream:
	case <-time.After(30 * time.Second):
		t.Fatal("no result arrived while one worker was wedged")
	}
	if !first.OK() {
		t.Fatalf("first result failed: %v", first.Err())
	}
	// The finished batch's bookkeeping races the result delivery: wait until
	// the scheduler has released the done worker, leaving exactly one busy —
	// the wedged one.
	var killed string
	deadline := time.Now().Add(10 * time.Second)
	for killed == "" {
		var busy []string
		for _, st := range fleet.Workers() {
			if st.Busy {
				busy = append(busy, st.URL)
			}
		}
		if len(busy) == 1 {
			killed = busy[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected exactly one busy worker, have %d", len(busy))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, ts := range []*httptest.Server{w1, w2} {
		if ts.URL == killed {
			ts.CloseClientConnections() // snap the dispatch stream mid-flight
		}
	}

	// The broken stream must requeue the spec onto the survivor, where the
	// (now past its once-gate) workload runs to completion.
	var second mavbench.Result
	select {
	case second = <-stream:
	case <-time.After(30 * time.Second):
		t.Fatal("requeued spec never completed on the surviving worker")
	}
	if !second.OK() {
		t.Fatalf("requeued result failed: %v", second.Err())
	}
	if _, open := <-stream; open {
		t.Fatal("stream delivered more results than specs")
	}

	killedFailures := int64(0)
	for _, st := range fleet.Workers() {
		if st.URL == killed {
			killedFailures = st.Failures
			if st.Healthy {
				t.Error("killed worker still marked healthy")
			}
		}
	}
	if killedFailures != 1 {
		t.Errorf("killed worker recorded %d failures, want 1", killedFailures)
	}
	releaseGate()
}

// TestCoordinatorServesRepeatsFromSharedStore pins the fleet-wide
// never-resimulate guarantee: with a shared disk store, a second campaign
// over the same specs is served entirely from the store — zero new
// simulations anywhere.
func TestCoordinatorServesRepeatsFromSharedStore(t *testing.T) {
	wl := &fleetWorkload{name: uniqueDistribWorkload("distrib_store")}
	core.Register(wl)

	store, err := mavbench.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Workers and coordinator share one store, as a fleet on a common
	// filesystem would.
	w1 := startWorker(t, server.Config{Workers: 1, Store: store})
	w2 := startWorker(t, server.Config{Workers: 1, Store: store})
	fleet := distrib.NewFleet(distrib.Config{})
	fleet.Register(w1.URL)
	fleet.Register(w2.URL)
	co := &distrib.Coordinator{Fleet: fleet, Store: store}

	specs := specsFor(wl.name, 4)
	first, err := co.Collect(context.Background(), specs)
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	simulated := wl.calls.Load()
	if simulated != 4 {
		t.Fatalf("first campaign simulated %d runs, want 4", simulated)
	}

	second, err := co.Collect(context.Background(), specs)
	if err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if got := wl.calls.Load(); got != simulated {
		t.Errorf("repeat campaign re-simulated: %d runs total, want still %d", got, simulated)
	}
	for i, res := range second {
		if !res.Cached {
			t.Errorf("repeat result %d not marked cached", i)
		}
	}
	want := marshalNormalized(t, first)
	got := marshalNormalized(t, second)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("store-served result %d differs from simulated:\n store: %s\n fresh: %s", i, got[i], want[i])
		}
	}
}

// TestCoordinatorTimesOutStalledWorker points one fleet slot at a server
// that accepts batches and never produces results: the idle-result timeout
// must requeue its batch onto the real worker.
func TestCoordinatorTimesOutStalledWorker(t *testing.T) {
	stallWl := &fleetWorkload{name: uniqueDistribWorkload("distrib_stall")}
	core.Register(stallWl)

	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/v1/run") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select {
		case <-hung:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(stalled.Close)
	good := startWorker(t, server.Config{Workers: 1})

	fleet := distrib.NewFleet(distrib.Config{})
	fleet.Register(stalled.URL)
	fleet.Register(good.URL)
	co := &distrib.Coordinator{Fleet: fleet, Config: distrib.Config{ResultTimeout: 500 * time.Millisecond}}

	results, err := co.Collect(context.Background(), specsFor(stallWl.name, 4))
	if err != nil {
		t.Fatalf("campaign across a stalled worker: %v", err)
	}
	for i, res := range results {
		if !res.OK() {
			t.Errorf("result %d failed: %v", i, res.Err())
		}
	}
}

// TestCoordinatorFallsBackToLocalExecution pins the degraded mode: with
// FallbackLocal set, a starved coordinator (here: an empty fleet) runs the
// remaining specs on the in-process engine instead of failing them.
func TestCoordinatorFallsBackToLocalExecution(t *testing.T) {
	wl := &fleetWorkload{name: uniqueDistribWorkload("distrib_fallback")}
	core.Register(wl)
	co := &distrib.Coordinator{
		Fleet:         distrib.NewFleet(distrib.Config{}),
		Config:        distrib.Config{WaitForWorkers: -1},
		FallbackLocal: true,
	}
	results, err := co.Collect(context.Background(), specsFor(wl.name, 3))
	if err != nil {
		t.Fatalf("fallback campaign: %v", err)
	}
	for i, res := range results {
		if !res.OK() {
			t.Errorf("result %d failed despite local fallback: %v", i, res.Err())
		}
	}
	if got := wl.calls.Load(); got != 3 {
		t.Errorf("local fallback simulated %d runs, want 3", got)
	}
}

// TestCoordinatorFailsFastWithNoWorkers pins the starvation path: an empty
// fleet with WaitForWorkers < 0 fails every spec immediately, with an error
// that says what happened.
func TestCoordinatorFailsFastWithNoWorkers(t *testing.T) {
	noWl := &fleetWorkload{name: uniqueDistribWorkload("distrib_noworkers")}
	core.Register(noWl)
	co := &distrib.Coordinator{Fleet: distrib.NewFleet(distrib.Config{}), Config: distrib.Config{WaitForWorkers: -1}}
	results, err := co.Collect(context.Background(), specsFor(noWl.name, 2))
	if err == nil {
		t.Fatal("campaign with no workers reported success")
	}
	for i, res := range results {
		if res.OK() {
			t.Errorf("result %d succeeded with no workers", i)
		} else if !strings.Contains(res.Error, "no healthy worker") {
			t.Errorf("result %d error = %q", i, res.Error)
		}
	}
}
