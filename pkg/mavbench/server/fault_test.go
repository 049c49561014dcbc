package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/distrib"
)

// workloadSeq makes registered workload names unique per test run, so the
// fault/tenancy suites survive -count=N: the process-wide world cache keys
// worlds by workload name, and a world an earlier run left there would let
// this run's gated workload skip its gate.
var workloadSeq atomic.Int64

func uniqueWorkload(prefix string) string {
	return fmt.Sprintf("%s_%d", prefix, workloadSeq.Add(1))
}

// faultWorkload is a one-simulated-second workload that can both signal when
// a run starts (the batch reached a worker) and block until released —
// the instrumentation the fault tests steer with.
type faultWorkload struct {
	name    string
	started chan struct{} // closed on the first World call
	gate    chan struct{} // when non-nil, blocks every World call
	once    sync.Once
}

func (w *faultWorkload) Name() string        { return w.name }
func (w *faultWorkload) Description() string { return "fault-injection test workload" }
func (w *faultWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	if w.started != nil {
		w.once.Do(func() { close(w.started) })
	}
	if w.gate != nil {
		<-w.gate
	}
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *faultWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "fault/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

// flakyProxy fronts a real worker and sabotages its /v1/run responses: the
// first faults[i] requests are disrupted per the mode list, later requests
// pass through verbatim. Modes:
//
//	"truncate" — forward the request, then shear the NDJSON stream mid-line
//	"drop"     — consume the request and kill the connection with no bytes
//	"delay"    — forward intact, but stall before each line
type flakyProxy struct {
	inner *httptest.Server
	modes []string

	mu sync.Mutex
	n  int
}

func (p *flakyProxy) mode() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n >= len(p.modes) {
		return "pass"
	}
	m := p.modes[p.n]
	p.n++
	return m
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/v1/run") {
		http.NotFound(w, r)
		return
	}
	mode := p.mode()
	if mode == "drop" {
		// Kill the TCP connection before any response bytes: the
		// coordinator sees a transport error, not a clean HTTP failure.
		panic(http.ErrAbortHandler)
	}
	body, _ := io.ReadAll(r.Body)
	resp, err := http.Post(p.inner.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(resp.StatusCode)
	switch mode {
	case "truncate":
		// Emit the first result line intact, then shear the second one
		// mid-JSON and abort — the worst kind of partial stream.
		lines := bytes.SplitAfter(out, []byte{'\n'})
		if len(lines) > 0 {
			_, _ = w.Write(lines[0])
		}
		if len(lines) > 1 && len(lines[1]) > 4 {
			_, _ = w.Write(lines[1][:len(lines[1])/2])
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	case "delay":
		for _, line := range bytes.SplitAfter(out, []byte{'\n'}) {
			time.Sleep(20 * time.Millisecond)
			_, _ = w.Write(line)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	default:
		_, _ = w.Write(out)
	}
}

// registerWorker registers a worker URL with a coordinator over HTTP.
func registerWorker(t *testing.T, coordURL, workerURL string) distrib.RegisterResponse {
	t.Helper()
	resp, err := http.Post(coordURL+"/v1/workers", "application/json",
		strings.NewReader(`{"url": "`+workerURL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker registration = %d", resp.StatusCode)
	}
	var reg distrib.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// normalizedLines renders results sorted by index with the Cached flag
// cleared — the bit-identity currency of these tests (cache hits are the only
// legitimate difference between an interrupted and an uninterrupted run).
func normalizedLines(t *testing.T, results []mavbench.Result) []string {
	t.Helper()
	byIndex := make(map[int]mavbench.Result, len(results))
	for _, res := range results {
		res.Cached = false
		byIndex[res.Index] = res
	}
	out := make([]string, 0, len(byIndex))
	for i := 0; i < len(results); i++ {
		res, ok := byIndex[i]
		if !ok {
			t.Fatalf("results missing index %d", i)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(buf))
	}
	return out
}

// TestCampaignSurvivesFlakyWorker is the wire-fault pin: a worker whose
// responses are truncated mid-NDJSON-line, dropped at the transport and
// delayed must not corrupt any campaign — the requeue path re-runs lost
// specs elsewhere and every campaign's results are bit-identical to a clean
// local run. The proxy is re-registered (operator "fixed" it) between
// campaigns so each fault mode actually fires.
func TestCampaignSurvivesFlakyWorker(t *testing.T) {
	flakyName := uniqueWorkload("svc_fault_flaky")
	core.RegisterFor(t, &faultWorkload{name: flakyName})

	healthy := newTestServer(t, Config{Workers: 1})
	flakyInner := newTestServer(t, Config{Workers: 1})
	proxy := httptest.NewServer(&flakyProxy{
		inner: flakyInner,
		modes: []string{"truncate", "drop", "delay"},
	})
	t.Cleanup(proxy.Close)

	coordSrv := New(Config{
		// A generous cooldown keeps the flaky worker benched once it fails,
		// and MaxAttempts 4 gives sheared units room to land elsewhere.
		Distrib: distrib.Config{MaxBatch: 2, MaxAttempts: 4, DownCooldown: time.Minute},
	})
	coord := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(coord.Close)
	registerWorker(t, coord.URL, proxy.URL)
	registerWorker(t, coord.URL, healthy.URL)

	runOnce := func(round int, seeds ...int) {
		t.Helper()
		ack := submitTo(t, coord.URL, specBody(flakyName, seeds...))
		results := collectResults(t, coord.URL, ack.ID)
		if len(results) != len(seeds) {
			t.Fatalf("round %d returned %d results, want %d", round, len(results), len(seeds))
		}
		for _, res := range results {
			if !res.OK() {
				t.Errorf("round %d spec %d failed through the flaky fleet: %v", round, res.Index, res.Err())
			}
		}
		// Reference: the same specs on a clean local engine, bit-identical.
		var specs []mavbench.Spec
		for _, seed := range seeds {
			specs = append(specs, mavbench.Spec{Workload: flakyName, Seed: int64(seed), MaxMissionTimeS: 30})
		}
		ref, err := mavbench.NewCampaign(specs...).SetWorkers(2).Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, want := normalizedLines(t, results), normalizedLines(t, ref)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d result %d diverged through faults:\n got %s\nwant %s", round, i, got[i], want[i])
			}
		}
	}

	// Round 1: the proxy shears its first batch mid-line. Fresh seeds per
	// round keep the store from short-circuiting dispatch entirely.
	runOnce(1, 11, 12, 13, 14, 15, 16)
	// The failed worker is benched; re-registration puts it back for the
	// next fault mode (a dropped connection), then again for delays.
	registerWorker(t, coord.URL, proxy.URL)
	runOnce(2, 21, 22, 23, 24, 25, 26)
	registerWorker(t, coord.URL, proxy.URL)
	runOnce(3, 31, 32, 33, 34, 35, 36)

	// The faults actually fired: the proxy worker accumulated failures while
	// the healthy worker absorbed the requeued remainder.
	var proxyStats, healthyStats distrib.WorkerStatus
	for _, st := range coordSrv.Fleet().Workers() {
		switch st.URL {
		case proxy.URL:
			proxyStats = st
		case healthy.URL:
			healthyStats = st
		}
	}
	if proxyStats.Failures < 2 {
		t.Errorf("flaky worker recorded %d failures, want >= 2 (truncate + drop)", proxyStats.Failures)
	}
	if healthyStats.Completed == 0 {
		t.Error("healthy worker completed nothing — requeue path untested")
	}
}

// TestCoordinatorKillRestartResumesCampaign is the durability pin the issue
// demands: a coordinator hard-killed mid-campaign (never Closed, like a
// crash) is replaced by a fresh server over the same journal directory and
// result store; the successor resumes the campaign under its original id and
// delivers results bit-identical to an uninterrupted run.
func TestCoordinatorKillRestartResumesCampaign(t *testing.T) {
	gated := &faultWorkload{name: uniqueWorkload("svc_fault_crash"), gate: make(chan struct{})}
	fast := &faultWorkload{name: uniqueWorkload("svc_fault_crash_fast")}
	core.RegisterFor(t, gated, fast)

	dir := t.TempDir()
	store := mavbench.NewBoundedMemoryCache(256)
	j1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Workers: 1, Store: store, Journal: j1})
	ts1 := httptest.NewServer(srv1.Handler())
	t.Cleanup(ts1.Close)

	// Specs run in order on one engine worker: two fast ones complete and
	// journal their marks, the gated one wedges the campaign "mid-flight".
	body := fmt.Sprintf(`{"specs": [
		{"workload": %[1]q, "seed": 1, "max_mission_time_s": 30},
		{"workload": %[1]q, "seed": 2, "max_mission_time_s": 30},
		{"workload": %[2]q, "seed": 3, "max_mission_time_s": 30},
		{"workload": %[1]q, "seed": 4, "max_mission_time_s": 30}
	]}`, fast.name, gated.name)
	ack := submitTo(t, ts1.URL, body)
	waitFor(t, 30*time.Second, func() bool {
		var status statusResponse
		getJSON(t, ts1, "/v1/campaigns/"+ack.ID, &status)
		return status.Completed >= 2
	}, "first two specs never completed before the crash")

	// Hard kill: no Close, no Finish — exactly what the journal is for. The
	// replacement opens the same directory and recovers on construction; the
	// still-gated workload immediately wedges the resumed campaign too, so
	// releasing the gate afterwards lets only the successor finish the job.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Workers: 1, Store: store, Journal: j2})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	close(gated.gate)

	// The campaign is addressable on the successor under its original id.
	results := collectResults(t, ts2.URL, ack.ID)
	if len(results) != 4 {
		t.Fatalf("resumed campaign returned %d results, want 4", len(results))
	}
	var status statusResponse
	getJSON(t, ts2, "/v1/campaigns/"+ack.ID, &status)
	if !status.Done || status.Completed != 4 || status.Failed != 0 {
		t.Errorf("resumed status = %+v", status)
	}

	// Bit-identity: the recovered run matches an uninterrupted reference run
	// of the same specs, modulo the Cached flag (specs finished before the
	// crash are legitimately served from the store).
	var specs []mavbench.Spec
	if err := json.Unmarshal([]byte(body), &struct {
		Specs *[]mavbench.Spec `json:"specs"`
	}{&specs}); err != nil {
		t.Fatal(err)
	}
	ref, err := mavbench.NewCampaign(specs...).SetWorkers(1).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, want := normalizedLines(t, results), normalizedLines(t, ref)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("recovered result %d diverged:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// The successor finishes the journal: the directory eventually empties.
	waitFor(t, 5*time.Second, func() bool {
		recovered, err := j2.Recover()
		return err == nil && len(recovered) == 0
	}, "journal entry survived a completed recovery")
}

// TestDrainDuringDispatch drains a worker while its batch is in flight: the
// batch finishes and counts, no new batch reaches the worker, and with every
// worker draining new campaigns fall back to local execution instead of
// queueing forever.
func TestDrainDuringDispatch(t *testing.T) {
	wl := &faultWorkload{name: uniqueWorkload("svc_fault_drain"), started: make(chan struct{}), gate: make(chan struct{})}
	core.RegisterFor(t, wl)

	worker := newTestServer(t, Config{Workers: 1})
	coordSrv := New(Config{Workers: 1})
	coord := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(coord.Close)
	reg := registerWorker(t, coord.URL, worker.URL)

	ack := submitTo(t, coord.URL, specBody(wl.name, 1, 2))
	<-wl.started // the batch is now executing on the worker

	resp, err := http.Post(coord.URL+"/v1/workers/"+reg.ID+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d", resp.StatusCode)
	}
	var list distrib.WorkerListResponse
	getJSONFrom(t, coord.URL+"/v1/workers", &list)
	if len(list.Workers) != 1 || !list.Workers[0].Draining {
		t.Fatalf("worker not reported draining: %+v", list.Workers)
	}

	// The in-flight batch completes after the gate opens...
	close(wl.gate)
	results := collectResults(t, coord.URL, ack.ID)
	if len(results) != 2 {
		t.Fatalf("drained campaign returned %d results, want 2", len(results))
	}
	for _, res := range results {
		if !res.OK() {
			t.Errorf("spec %d failed across the drain: %v", res.Index, res.Err())
		}
	}
	st := coordSrv.Fleet().Workers()[0]
	if st.Dispatched == 0 || st.Failures != 0 {
		t.Errorf("drained worker stats = %+v", st)
	}

	// ...and a new campaign bypasses the drained fleet entirely (local
	// fallback), leaving the worker's dispatch count unchanged.
	before := coordSrv.Fleet().Workers()[0].Dispatched
	ack2 := submitTo(t, coord.URL, specBody(wl.name, 3))
	results2 := collectResults(t, coord.URL, ack2.ID)
	if len(results2) != 1 || !results2[0].OK() {
		t.Fatalf("post-drain campaign results = %+v", results2)
	}
	if after := coordSrv.Fleet().Workers()[0].Dispatched; after != before {
		t.Errorf("drained worker received a new batch (%d -> %d dispatched)", before, after)
	}
	// Unknown worker ids still answer a JSON 404.
	nf, err := http.Post(coord.URL+"/v1/workers/wdeadbeef/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	assertJSONError(t, nf, http.StatusNotFound)
	nf.Body.Close()
}

// getJSONFrom is getJSON for a full URL (coordinator helpers use raw URLs).
func getJSONFrom(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
