package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/pkg/mavbench"
)

// serviceWorkload is a one-simulated-second workload so the end-to-end HTTP
// tests stay fast. gate (when non-nil) blocks world construction.
type serviceWorkload struct {
	name string
	gate chan struct{}
}

func (w *serviceWorkload) Name() string        { return w.name }
func (w *serviceWorkload) Description() string { return "fake workload for service tests" }
func (w *serviceWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	if w.gate != nil {
		<-w.gate
	}
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *serviceWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "svc/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func submit(t *testing.T, ts *httptest.Server, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("submit status = %d: %s", resp.StatusCode, buf.String())
	}
	var ack submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestSubmitAndStreamEndToEnd drives the full service path: submit a
// campaign over HTTP, stream its results back as NDJSON, and resolve the
// spec's content address.
func TestSubmitAndStreamEndToEnd(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_e2e_workload"})
	ts := startServer(t)

	ack := submit(t, ts, `{"specs": [
		{"workload": "svc_e2e_workload", "seed": 7, "max_mission_time_s": 30},
		{"workload": "svc_e2e_workload", "seed": 8, "max_mission_time_s": 30}
	]}`)
	if ack.ID == "" || ack.Count != 2 || len(ack.SpecHashes) != 2 {
		t.Fatalf("ack = %+v", ack)
	}

	resp, err := http.Get(ts.URL + ack.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results content type = %q", ct)
	}
	var results []mavbench.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res mavbench.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("streamed %d results", len(results))
	}
	for _, res := range results {
		if !res.OK() || !res.Report.Success {
			t.Errorf("result %d failed: %+v", res.Index, res)
		}
		if res.SpecHash != ack.SpecHashes[res.Index] {
			t.Errorf("result %d hash %s != submitted %s", res.Index, res.SpecHash, ack.SpecHashes[res.Index])
		}
	}

	// The status endpoint agrees.
	var status statusResponse
	getJSON(t, ts, "/v1/campaigns/"+ack.ID, &status)
	if !status.Done || status.Completed != 2 || status.Failed != 0 {
		t.Errorf("status = %+v", status)
	}

	// The spec is addressable by its content hash and round-trips.
	var specResp specResponse
	getJSON(t, ts, "/v1/specs/"+ack.SpecHashes[0], &specResp)
	if specResp.Spec.Workload != "svc_e2e_workload" || specResp.Spec.Hash() != ack.SpecHashes[0] {
		t.Errorf("spec lookup = %+v", specResp)
	}
}

// TestResultsStreamIncrementally proves a client sees the first result while
// the campaign's second run is still blocked mid-flight.
func TestResultsStreamIncrementally(t *testing.T) {
	gate := make(chan struct{})
	core.RegisterFor(t, &serviceWorkload{name: "svc_stream_fast"}, &serviceWorkload{name: "svc_stream_slow", gate: gate})
	// A world cache of its own: a world cached by an earlier run of this test
	// would let the gated run skip its gate.
	ts := httptest.NewServer(New(Config{Workers: 1, WorldCache: mavbench.NewWorldCache()}).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})

	ack := submit(t, ts, `{"specs": [
		{"workload": "svc_stream_fast", "max_mission_time_s": 30},
		{"workload": "svc_stream_slow", "max_mission_time_s": 30}
	]}`)

	resp, err := http.Get(ts.URL + ack.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		res mavbench.Result
		err error
	}
	lines := make(chan line, 2)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var res mavbench.Result
			err := json.Unmarshal(sc.Bytes(), &res)
			lines <- line{res, err}
		}
		close(lines)
	}()
	// First result must arrive while the second run is gated.
	select {
	case l := <-lines:
		if l.err != nil || l.res.Index != 0 || !l.res.OK() {
			t.Fatalf("first streamed line = %+v", l)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no result streamed while the campaign was still running")
	}
	close(gate)
	select {
	case l, ok := <-lines:
		if !ok || l.err != nil || l.res.Index != 1 {
			t.Fatalf("second streamed line = %+v (ok=%v)", l, ok)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gated result never streamed")
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	ts := startServer(t)
	cases := []struct {
		body string
		want string
	}{
		{`{"specs": []}`, "no specs"},
		{`not json`, "decoding"},
		{`{"specs": [{"workload": "no_such_workload"}]}`, "unknown workload"},
		{`{"specs": [{"workload": "scanning", "detector": "yolov9"}]}`, "unknown detector"},
		{`{"specs": [{"workload": "scanning", "cores": 64}]}`, "cores"},
		{`{"specs": [{"workload": "scanning", "bogus_knob": 1}]}`, "unknown field"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("submit(%s) = %d %q, want 400 mentioning %q", tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
}

func TestNotFoundResponses(t *testing.T) {
	ts := startServer(t)
	for _, path := range []string{"/v1/campaigns/cdeadbeef", "/v1/campaigns/cdeadbeef/results", "/v1/specs/0000"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCampaignEviction guards the retention cap: the oldest campaign and
// its unshared spec index entries are dropped once MaxCampaigns is
// exceeded, while shared specs survive as long as a retaining campaign does.
func TestCampaignEviction(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_evict_workload"})
	ts := httptest.NewServer(New(Config{Workers: 2, MaxCampaigns: 2}).Handler())
	t.Cleanup(ts.Close)

	body := func(seed int) string {
		return fmt.Sprintf(`{"specs": [{"workload": "svc_evict_workload", "seed": %d, "max_mission_time_s": 30}]}`, seed)
	}
	first := submit(t, ts, body(1))
	second := submit(t, ts, body(2))
	third := submit(t, ts, body(2)) // shares second's spec
	fourth := submit(t, ts, body(3))

	// first and second are evicted (cap 2 keeps third and fourth).
	for _, id := range []string{first.ID, second.ID} {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted campaign %s still addressable (%d)", id, resp.StatusCode)
		}
	}
	// first's unshared spec is gone; second's spec survives via third.
	resp, err := http.Get(ts.URL + "/v1/specs/" + first.SpecHashes[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted campaign's unshared spec still addressable (%d)", resp.StatusCode)
	}
	var specResp specResponse
	getJSON(t, ts, "/v1/specs/"+third.SpecHashes[0], &specResp)
	var status statusResponse
	getJSON(t, ts, "/v1/campaigns/"+fourth.ID, &status)
	if status.Count != 1 {
		t.Errorf("retained campaign status = %+v", status)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	ts := startServer(t)
	var wr workloadsResponse
	getJSON(t, ts, "/v1/workloads", &wr)
	names := map[string]bool{}
	for _, info := range wr.Workloads {
		names[info.Name] = true
	}
	for _, want := range []string{"scanning", "package_delivery", "mapping_3d", "search_and_rescue", "aerial_photography"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
	if len(wr.Detectors) == 0 || len(wr.Planners) == 0 || len(wr.PaperPoints) != 9 {
		t.Errorf("knob listings incomplete: %+v", wr)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	ts := startServer(t)
	var sr scenariosResponse
	getJSON(t, ts, "/v1/scenarios", &sr)
	// 3 grades per family plus the search-discovered frontier presets.
	if len(sr.Families) != 6 || len(sr.Scenarios) < len(sr.Families)*3+2 {
		t.Fatalf("catalog incomplete: %d families, %d scenarios", len(sr.Families), len(sr.Scenarios))
	}
	names := map[string]bool{}
	for _, s := range sr.Scenarios {
		names[s.Name] = true
	}
	for _, want := range []string{"urban-sparse", "urban-dense", "farm-default", "indoor-dense", "urban-frontier-weak", "urban-frontier-strong"} {
		if !names[want] {
			t.Errorf("scenario %s missing from catalog", want)
		}
	}
	if len(sr.Grades) != 3 {
		t.Errorf("difficulty grades = %v", sr.Grades)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
