package mavbench

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
)

// testWorkload is a fast fake workload: one simulated second, then success.
// gate (when non-nil) blocks world construction until the channel is closed,
// letting tests hold a run mid-flight; runs counts world constructions.
type testWorkload struct {
	name string
	gate chan struct{}
	runs atomic.Int64
}

func (w *testWorkload) Name() string        { return w.name }
func (w *testWorkload) Description() string { return "fake workload for public API tests" }
func (w *testWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.runs.Add(1)
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *testWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "test/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

// panicWorkload is a testWorkload whose Setup panics.
type panicWorkload struct{ testWorkload }

func (w *panicWorkload) Setup(*sim.Simulator, core.Params) error { panic("wired backwards") }

// registerPanicWorkloads registers the panic test's workloads once per
// process, so the test also passes under -count.
var registerPanicWorkloads sync.Once

func mustSpec(t *testing.T, workload string, opts ...Option) Spec {
	t.Helper()
	spec, err := NewSpec(workload, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func recvResult(t *testing.T, ch <-chan Result, what string) Result {
	t.Helper()
	select {
	case res, ok := <-ch:
		if !ok {
			t.Fatalf("stream closed while waiting for %s", what)
		}
		return res
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

// TestCampaignStreamsIncrementally guards the streaming contract: the first
// result must be observable on the channel while a later run is still
// executing. A gated workload holds run 1 mid-flight until the test has
// already received run 0's result; if results were only delivered after the
// whole campaign finished, this test would time out.
func TestCampaignStreamsIncrementally(t *testing.T) {
	fast := &testWorkload{name: "api_stream_fast"}
	slow := &testWorkload{name: "api_stream_slow", gate: make(chan struct{})}
	core.Register(fast)
	core.Register(slow)

	campaign := NewCampaign(
		mustSpec(t, fast.name, WithSeed(1), WithMaxMissionTime(30)),
		mustSpec(t, slow.name, WithSeed(2), WithMaxMissionTime(30)),
	).SetWorkers(1) // one worker: run 0 completes first, run 1 blocks on the gate

	ch := campaign.Stream(context.Background())
	first := recvResult(t, ch, "the first result (while run 1 is still gated)")
	if first.Index != 0 || !first.OK() {
		t.Fatalf("first streamed result = %+v", first)
	}
	if slow.runs.Load() != 0 {
		t.Fatal("gated run finished before the first result was received")
	}
	close(slow.gate)
	second := recvResult(t, ch, "the gated result")
	if second.Index != 1 || !second.OK() {
		t.Fatalf("second streamed result = %+v", second)
	}
	if _, open := <-ch; open {
		t.Fatal("stream not closed after the last result")
	}
}

func TestCampaignCacheServesRepeatedSpecs(t *testing.T) {
	wl := &testWorkload{name: "api_cache_workload"}
	core.Register(wl)
	spec := mustSpec(t, wl.name, WithSeed(5), WithMaxMissionTime(30))
	cache := NewMemoryCache()

	fresh, err := NewCampaign(spec).SetStore(cache).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Cached {
		t.Error("first execution claims to be cached")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d results", cache.Len())
	}
	ran := wl.runs.Load()

	served, err := NewCampaign(spec).SetStore(cache).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !served[0].Cached {
		t.Error("repeated spec not served from cache")
	}
	if wl.runs.Load() != ran {
		t.Errorf("repeated spec re-simulated: %d -> %d runs", ran, wl.runs.Load())
	}
	if served[0].SpecHash != fresh[0].SpecHash || served[0].Report.MissionTimeS != fresh[0].Report.MissionTimeS {
		t.Error("cached result diverges from the fresh one")
	}
}

func TestBoundedMemoryCacheEviction(t *testing.T) {
	c := NewBoundedMemoryCache(2)
	c.Put("a", Result{SpecHash: "a"})
	c.Put("b", Result{SpecHash: "b"})
	c.Put("a", Result{SpecHash: "a", Platform: "updated"}) // update, not a new slot
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	c.Put("c", Result{SpecHash: "c"}) // evicts the oldest insertion ("a")
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry not evicted")
	}
	for _, want := range []string{"b", "c"} {
		if _, ok := c.Get(want); !ok {
			t.Errorf("entry %q evicted prematurely", want)
		}
	}
}

func TestCollectOrderAndErrorAttribution(t *testing.T) {
	wl := &testWorkload{name: "api_collect_workload"}
	core.Register(wl)
	good := mustSpec(t, wl.name, WithSeed(9), WithMaxMissionTime(30))
	bad := Spec{Workload: "no_such_workload"} // hand-assembled, skips NewSpec validation

	results, err := NewCampaign(good, bad).Collect(context.Background())
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if !results[0].OK() || results[0].Index != 0 {
		t.Errorf("good run failed: %+v", results[0])
	}
	if results[1].OK() || !strings.Contains(results[1].Error, "unknown workload") {
		t.Errorf("bad spec's failure not surfaced: %+v", results[1])
	}
	if err == nil || !strings.Contains(err.Error(), "no_such_workload") {
		t.Errorf("joined error = %v", err)
	}
}

func TestCampaignCancellation(t *testing.T) {
	wl := &testWorkload{name: "api_cancel_workload"}
	core.Register(wl)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any run starts

	results, err := NewCampaign(
		mustSpec(t, wl.name, WithSeed(1), WithMaxMissionTime(30)),
		mustSpec(t, wl.name, WithSeed(2), WithMaxMissionTime(30)),
	).Collect(ctx)
	if err == nil {
		t.Fatal("canceled campaign reported success")
	}
	for i, res := range results {
		if res.OK() {
			t.Errorf("run %d claims success under cancellation", i)
		}
	}
	if wl.runs.Load() != 0 {
		t.Errorf("%d runs executed after cancellation", wl.runs.Load())
	}
}

func TestRunConvenience(t *testing.T) {
	wl := &testWorkload{name: "api_run_workload"}
	core.Register(wl)
	res, err := Run(context.Background(), mustSpec(t, wl.name, WithSeed(3), WithMaxMissionTime(30)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Success || res.Platform == "" || res.SpecHash == "" {
		t.Errorf("result = %+v", res)
	}
}

// TestCampaignCancellationMidStream cancels a campaign after its first
// result has already been delivered: the in-flight run must still surface
// its result, runs that never started must be reported as canceled by
// Collect-style consumers, and the stream must close promptly.
func TestCampaignCancellationMidStream(t *testing.T) {
	fast := &testWorkload{name: "api_midcancel_fast"}
	gated := &testWorkload{name: "api_midcancel_gated", gate: make(chan struct{})}
	core.Register(fast)
	core.Register(gated)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := []Spec{
		mustSpec(t, fast.name, WithSeed(1), WithMaxMissionTime(30)),
		mustSpec(t, gated.name, WithSeed(2), WithMaxMissionTime(30)),
		mustSpec(t, gated.name, WithSeed(3), WithMaxMissionTime(30)),
	}
	ch := NewCampaign(specs...).SetWorkers(1).Stream(ctx)

	first := recvResult(t, ch, "the fast run's result")
	if first.Index != 0 || !first.OK() {
		t.Fatalf("first streamed result = %+v", first)
	}
	// Run 1 is now blocked inside world construction. Cancel the campaign,
	// then release the gate: the started run completes and streams; run 2
	// must never start.
	cancel()
	close(gated.gate)

	second := recvResult(t, ch, "the in-flight gated result")
	if second.Index != 1 || !second.OK() {
		t.Fatalf("in-flight run's result = %+v", second)
	}
	if res, ok := <-ch; ok {
		t.Fatalf("unexpected result after cancellation: %+v", res)
	}
	if gated.runs.Load() != 1 {
		t.Errorf("gated workload ran %d times, want 1 (run 2 canceled before start)", gated.runs.Load())
	}
}

// TestCampaignRecoversSetupPanic runs a spec whose workload panics in Setup
// between two healthy specs: the panic becomes that spec's failed Result,
// its neighbours still succeed, and Collect's joined error names it.
func TestCampaignRecoversSetupPanic(t *testing.T) {
	registerPanicWorkloads.Do(func() {
		core.Register(&testWorkload{name: "api_panic_healthy"})
		core.Register(&panicWorkload{testWorkload{name: "api_panic_setup"}})
	})
	results, err := NewCampaign(
		mustSpec(t, "api_panic_healthy", WithSeed(1), WithMaxMissionTime(30)),
		mustSpec(t, "api_panic_setup", WithSeed(1), WithMaxMissionTime(30)),
		mustSpec(t, "api_panic_healthy", WithSeed(2), WithMaxMissionTime(30)),
	).SetWorkers(2).Collect(context.Background())
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[1].OK() || !strings.Contains(results[1].Error, "panicked") {
		t.Errorf("panicking spec's Error = %q, want it to say it panicked", results[1].Error)
	}
	for _, i := range []int{0, 2} {
		if !results[i].OK() || !results[i].Report.Success {
			t.Errorf("healthy spec %d: error %q, success %v", i, results[i].Error, results[i].Report.Success)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "spec 1 (api_panic_setup)") || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("joined error = %v, want it to name the panicking spec", err)
	}
}
