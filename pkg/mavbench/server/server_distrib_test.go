package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mavbench/internal/core"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/distrib"
)

// TestRunEndpointStreamsBatchResults drives POST /v1/run, the synchronous
// batch endpoint fleet coordinators dispatch to: one NDJSON result per spec,
// invalid specs surfacing as failed results (not request rejections), exactly
// as the local engine reports them.
func TestRunEndpointStreamsBatchResults(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_run_batch"})
	ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"specs": [
		{"workload": "svc_run_batch", "seed": 1, "max_mission_time_s": 30},
		{"workload": "no_such_workload"},
		{"workload": "svc_run_batch", "seed": 2, "max_mission_time_s": 30}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("run content type = %q", ct)
	}
	byIndex := map[int]mavbench.Result{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res mavbench.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		byIndex[res.Index] = res
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(byIndex) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(byIndex))
	}
	if !byIndex[0].OK() || !byIndex[2].OK() {
		t.Errorf("valid specs failed: %v / %v", byIndex[0].Err(), byIndex[2].Err())
	}
	if byIndex[1].OK() || !strings.Contains(byIndex[1].Error, "no_such_workload") {
		t.Errorf("invalid spec result = %+v", byIndex[1])
	}
}

func TestRunEndpointRejectsEmptyBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"specs": []}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertJSONError(t, resp, http.StatusBadRequest)
}

// assertJSONError checks the uniform error contract: the given status, an
// application/json content type, and a non-empty {"error": ...} body.
func assertJSONError(t *testing.T, resp *http.Response, wantStatus int) string {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error == "" {
		t.Error("error body has empty error message")
	}
	return body.Error
}

// TestWorkerRegistryEndpoints covers the fleet-membership surface: register,
// idempotent re-register, list, heartbeat, and deregister, with JSON errors
// for unknown ids.
func TestWorkerRegistryEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})

	register := func(url string) distrib.RegisterResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/workers", "application/json", strings.NewReader(`{"url": "`+url+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register status = %d", resp.StatusCode)
		}
		var reg distrib.RegisterResponse
		if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	a := register("http://worker-a:8080")
	if a.ID == "" || a.HeartbeatIntervalS <= 0 {
		t.Fatalf("registration = %+v", a)
	}
	if b := register("http://worker-a:8080"); b.ID != a.ID {
		t.Errorf("re-registration minted new id %q (had %q)", b.ID, a.ID)
	}
	register("http://worker-b:8080")

	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Workers []distrib.WorkerStatus `json:"workers"`
		Healthy int                    `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Workers) != 2 || list.Healthy != 2 {
		t.Fatalf("worker list = %+v", list)
	}

	hb, err := http.Post(ts.URL+"/v1/workers/"+a.ID+"/heartbeat", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	hb.Body.Close()
	if hb.StatusCode != http.StatusOK {
		t.Errorf("heartbeat status = %d", hb.StatusCode)
	}
	hbBad, err := http.Post(ts.URL+"/v1/workers/wdeadbeef/heartbeat", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := assertJSONError(t, hbBad, http.StatusNotFound)
	hbBad.Body.Close()
	if !strings.Contains(msg, "re-register") {
		t.Errorf("unknown-worker heartbeat error %q does not tell the worker to re-register", msg)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/"+a.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Errorf("deregister status = %d", del.StatusCode)
	}
	del2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	assertJSONError(t, del2, http.StatusNotFound)
	del2.Body.Close()
}

// TestEveryErrorIsStructuredJSON pins the service-wide error contract:
// unknown campaign ids, unknown spec hashes, unknown routes and wrong
// methods all answer with the right status and a {"error": "..."} JSON body
// — never the mux's bare text.
func TestEveryErrorIsStructuredJSON(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path string
		wantStatus         int
	}{
		{"unknown campaign", http.MethodGet, "/v1/campaigns/c0123456789abcde", http.StatusNotFound},
		{"unknown campaign results", http.MethodGet, "/v1/campaigns/c0123456789abcde/results", http.StatusNotFound},
		{"unknown spec hash", http.MethodGet, "/v1/specs/ffffffffffffffff", http.StatusNotFound},
		{"unknown route", http.MethodGet, "/v1/nope", http.StatusNotFound},
		{"root", http.MethodGet, "/", http.StatusNotFound},
		{"wrong method on campaigns", http.MethodGet, "/v1/campaigns", http.StatusMethodNotAllowed},
		{"wrong method on run", http.MethodGet, "/v1/run", http.StatusMethodNotAllowed},
		{"wrong method on workloads", http.MethodDelete, "/v1/workloads", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			assertJSONError(t, resp, tc.wantStatus)
		})
	}
}

// TestFleetTokenGuardsWorkerRegistry pins the fleet trust boundary: with a
// FleetToken configured, registration, heartbeat and deregistration demand
// the bearer token and reject everything else with a 401 JSON error.
func TestFleetTokenGuardsWorkerRegistry(t *testing.T) {
	ts := newTestServer(t, Config{FleetToken: "sekrit"})

	post := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(`{"url": "http://w:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	noToken := post("/v1/workers", "")
	assertJSONError(t, noToken, http.StatusUnauthorized)
	noToken.Body.Close()
	badToken := post("/v1/workers", "wrong")
	assertJSONError(t, badToken, http.StatusUnauthorized)
	badToken.Body.Close()

	good := post("/v1/workers", "sekrit")
	defer good.Body.Close()
	if good.StatusCode != http.StatusOK {
		t.Fatalf("register with token = %d", good.StatusCode)
	}
	var reg distrib.RegisterResponse
	if err := json.NewDecoder(good.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}

	hbBad := post("/v1/workers/"+reg.ID+"/heartbeat", "")
	assertJSONError(t, hbBad, http.StatusUnauthorized)
	hbBad.Body.Close()
	hbGood := post("/v1/workers/"+reg.ID+"/heartbeat", "sekrit")
	hbGood.Body.Close()
	if hbGood.StatusCode != http.StatusOK {
		t.Errorf("heartbeat with token = %d", hbGood.StatusCode)
	}
}

// TestSubmittedCampaignShardsAcrossFleet is the service-level distributed
// path: workers register over HTTP, a campaign submitted to the coordinator
// streams back merged results identical to a local run, and both workers
// participate.
func TestSubmittedCampaignShardsAcrossFleet(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_fleet_shard"})

	worker1 := newTestServer(t, Config{Workers: 1})
	worker2 := newTestServer(t, Config{Workers: 1})
	coordSrv := New(Config{})
	coord := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(coord.Close)
	for _, w := range []*httptest.Server{worker1, worker2} {
		resp, err := http.Post(coord.URL+"/v1/workers", "application/json", strings.NewReader(`{"url": "`+w.URL+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker registration status = %d", resp.StatusCode)
		}
	}

	specJSON := `{"specs": [
		{"workload": "svc_fleet_shard", "seed": 1, "max_mission_time_s": 30},
		{"workload": "svc_fleet_shard", "seed": 2, "max_mission_time_s": 30},
		{"workload": "svc_fleet_shard", "seed": 3, "max_mission_time_s": 30},
		{"workload": "svc_fleet_shard", "seed": 4, "max_mission_time_s": 30}
	]}`
	ack := submitTo(t, coord.URL, specJSON)
	results := collectResults(t, coord.URL, ack.ID)
	if len(results) != 4 {
		t.Fatalf("fleet campaign returned %d results, want 4", len(results))
	}
	for _, res := range results {
		if !res.OK() {
			t.Errorf("spec %d failed: %v", res.Index, res.Err())
		}
	}
	for _, st := range coordSrv.Fleet().Workers() {
		if st.Dispatched == 0 {
			t.Errorf("worker %s never received a batch", st.URL)
		}
	}
}

// TestSearchShardsAcrossFleet runs an adversarial search on a coordinator
// with one registered worker: the candidate batches go to the worker, and
// the frontier is byte-identical to a standalone server's.
func TestSearchShardsAcrossFleet(t *testing.T) {
	worker := newTestServer(t, Config{Workers: 1})
	coordSrv := New(Config{})
	coord := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(coord.Close)
	resp, err := http.Post(coord.URL+"/v1/workers", "application/json", strings.NewReader(`{"url": "`+worker.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker registration status = %d", resp.StatusCode)
	}

	status, fleetFrontier := postSearch(t, coord, searchBody)
	if status != http.StatusOK {
		t.Fatalf("fleet POST /v1/search = %d: %s", status, fleetFrontier)
	}
	status, localFrontier := postSearch(t, startServer(t), searchBody)
	if status != http.StatusOK {
		t.Fatalf("standalone POST /v1/search = %d: %s", status, localFrontier)
	}
	if !bytes.Equal(fleetFrontier, localFrontier) {
		t.Errorf("fleet frontier differs from the standalone one:\n%s\n%s", fleetFrontier, localFrontier)
	}
	for _, st := range coordSrv.Fleet().Workers() {
		if st.Dispatched == 0 {
			t.Errorf("worker %s never received a batch", st.URL)
		}
	}
}

// submitTo posts a campaign to an arbitrary base URL.
func submitTo(t *testing.T, baseURL, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var ack submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}
