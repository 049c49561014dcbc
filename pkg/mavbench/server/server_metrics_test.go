package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mavbench/internal/core"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestMetricsEndpoint pins the observability surface the issue demands: after
// real traffic, /metrics exposes request counts by endpoint and status,
// request latency histograms, per-tenant queue depth, worker health gauges
// and store hit/miss counters — in deterministic Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	wlName := uniqueWorkload("svc_metrics")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	srv := New(Config{Workers: 2, Tenants: []TenantConfig{
		{Name: "obs", APIKey: "key-o", MaxActiveCampaigns: 4},
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Drive traffic: one campaign run twice (the repeat hits the store), one
	// rejected submission, one 404, one malformed search.
	body := specBody(wlName, 1)
	for i := 0; i < 2; i++ {
		resp := submitAs(t, ts, "key-o", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		var ack submitResponse
		mustDecode(t, resp, &ack)
		results := collectResults(t, ts.URL, ack.ID)
		if len(results) != 1 || !results[0].OK() {
			t.Fatalf("campaign %d results = %+v", i, results)
		}
		if i == 1 && !results[0].Cached {
			t.Error("repeated spec not served from store")
		}
	}
	denied := submitAs(t, ts, "bad-key", body)
	denied.Body.Close()
	nf, err := http.Get(ts.URL + "/v1/campaigns/cdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	bad, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()

	text := scrape(t, ts)
	for _, want := range []string{
		`mavbench_http_requests_total{endpoint="campaigns",code="202"} 2`,
		`mavbench_http_requests_total{endpoint="campaigns",code="403"} 1`,
		`mavbench_http_requests_total{endpoint="campaign_status",code="404"} 1`,
		`mavbench_http_requests_total{endpoint="campaign_results",code="200"} 2`,
		`mavbench_http_requests_total{endpoint="search",code="400"} 1`,
		`mavbench_http_request_duration_seconds_count{endpoint="campaigns"} 3`,
		`# TYPE mavbench_http_request_duration_seconds histogram`,
		`# TYPE mavbench_dispatch_duration_seconds histogram`,
		`mavbench_tenant_active_campaigns{tenant="obs"} 0`,
		`mavbench_tenant_queued_specs{tenant="obs"} 0`,
		`mavbench_campaigns_total{tenant="obs"} 2`,
		`mavbench_submissions_rejected_total{code="unknown_api_key"} 1`,
		`mavbench_store_hits_total 1`,
		`mavbench_workers_registered 0`,
		`mavbench_workers_healthy 0`,
		`mavbench_workers_dispatchable 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "mavbench_store_misses_total 1") {
		t.Errorf("store misses series wrong:\n%s", grepMetric(text, "mavbench_store_misses_total"))
	}
}

// TestMetricsQueueDepthTracksBacklog watches the per-tenant gauges move: a
// gated campaign holds queue depth and active count up until it completes.
func TestMetricsQueueDepthTracksBacklog(t *testing.T) {
	gated := &serviceWorkload{name: uniqueWorkload("svc_metrics_gate"), gate: make(chan struct{})}
	core.RegisterFor(t, gated)
	srv := New(Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "depth", APIKey: "key-d"},
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := submitAs(t, ts, "key-d", specBody(gated.name, 1, 2, 3))
	var ack submitResponse
	mustDecode(t, resp, &ack)

	text := scrape(t, ts)
	if !strings.Contains(text, `mavbench_tenant_active_campaigns{tenant="depth"} 1`) {
		t.Errorf("active gauge:\n%s", grepMetric(text, "mavbench_tenant_active_campaigns"))
	}
	if !strings.Contains(text, `mavbench_tenant_queued_specs{tenant="depth"} 3`) {
		t.Errorf("queue depth gauge:\n%s", grepMetric(text, "mavbench_tenant_queued_specs"))
	}

	close(gated.gate)
	collectResults(t, ts.URL, ack.ID)
	text = scrape(t, ts)
	if !strings.Contains(text, `mavbench_tenant_active_campaigns{tenant="depth"} 0`) ||
		!strings.Contains(text, `mavbench_tenant_queued_specs{tenant="depth"} 0`) {
		t.Errorf("gauges not released after completion:\n%s%s",
			grepMetric(text, "mavbench_tenant_active_campaigns"), grepMetric(text, "mavbench_tenant_queued_specs"))
	}
}

// TestRequestIDPropagation pins the request-id envelope: the server assigns
// an id when the client sends none and echoes a client-supplied one, on every
// endpoint.
func TestRequestIDPropagation(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-Id"); rid == "" {
		t.Error("server assigned no request id")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/workloads", nil)
	req.Header.Set("X-Request-Id", "rid-12345")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-Id"); rid != "rid-12345" {
		t.Errorf("propagated request id = %q, want rid-12345", rid)
	}
}

// grepMetric returns the lines of one metric family (for failure messages).
func grepMetric(text, name string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// mustDecode decodes a JSON response body, failing the test on error.
func mustDecode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
