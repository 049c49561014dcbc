package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mavbench/internal/core"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/resultdb"
)

// computeSweepBody builds a POST /v1/campaigns body that sweeps the compute
// axis over a fixed (workload, seed) pair — every spec shares one world.
func computeSweepBody(workload string, seed int, cores ...int) string {
	var parts []string
	for _, c := range cores {
		parts = append(parts, fmt.Sprintf(
			`{"workload": %q, "seed": %d, "cores": %d, "max_mission_time_s": 30}`, workload, seed, c))
	}
	return `{"specs": [` + strings.Join(parts, ",") + `]}`
}

// queryJSON fetches a URL and decodes its JSON body into out, returning the
// status code.
func queryJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestQueryResultsEndToEnd pins the analytics surface: campaigns run against
// a segment store, and GET /v1/results filters them by workload and compute
// range, projects report metrics into flat rows, and rejects bad parameters.
func TestQueryResultsEndToEnd(t *testing.T) {
	wlName := uniqueWorkload("svc_query")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(Config{Workers: 2, Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := submitAs(t, ts, "", computeSweepBody(wlName, 7, 1, 2, 4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var ack submitResponse
	mustDecode(t, resp, &ack)
	if results := collectResults(t, ts.URL, ack.ID); len(results) != 3 {
		t.Fatalf("campaign produced %d results, want 3", len(results))
	}

	var all struct {
		Count   int               `json:"count"`
		Results []mavbench.Result `json:"results"`
	}
	if code := queryJSON(t, ts.URL+"/v1/results?workload="+wlName, &all); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if all.Count != 3 || len(all.Results) != 3 {
		t.Fatalf("workload query returned %d results, want 3", all.Count)
	}
	for _, res := range all.Results {
		if res.Spec.Workload != wlName || !res.OK() {
			t.Fatalf("query returned foreign or failed result: %+v", res)
		}
	}

	var ranged struct {
		Count   int               `json:"count"`
		Results []mavbench.Result `json:"results"`
	}
	queryJSON(t, ts.URL+"/v1/results?workload="+wlName+"&cores_min=2&cores_max=4", &ranged)
	if ranged.Count != 2 {
		t.Fatalf("cores range query returned %d, want 2", ranged.Count)
	}
	for _, res := range ranged.Results {
		if res.Spec.Cores < 2 || res.Spec.Cores > 4 {
			t.Fatalf("cores filter leaked cores=%d", res.Spec.Cores)
		}
	}

	var projected struct {
		Count   int              `json:"count"`
		Metrics []string         `json:"metrics"`
		Results []map[string]any `json:"results"`
	}
	queryJSON(t, ts.URL+"/v1/results?workload="+wlName+"&metrics=MissionTimeS,TotalEnergyKJ,NoSuchMetric", &projected)
	if projected.Count != 3 {
		t.Fatalf("projected query returned %d rows, want 3", projected.Count)
	}
	for _, row := range projected.Results {
		if _, ok := row["MissionTimeS"].(float64); !ok {
			t.Fatalf("row missing MissionTimeS: %v", row)
		}
		if _, ok := row["TotalEnergyKJ"].(float64); !ok {
			t.Fatalf("row missing TotalEnergyKJ: %v", row)
		}
		if _, ok := row["NoSuchMetric"]; ok {
			t.Fatalf("unknown metric name materialized: %v", row)
		}
		if row["workload"] != wlName {
			t.Fatalf("row missing spec axes: %v", row)
		}
		if _, ok := row["spec"]; ok {
			t.Fatalf("projection leaked full result: %v", row)
		}
	}

	var limited struct {
		Count int `json:"count"`
	}
	queryJSON(t, ts.URL+"/v1/results?workload="+wlName+"&limit=1", &limited)
	if limited.Count != 1 {
		t.Fatalf("limit=1 returned %d", limited.Count)
	}

	var none struct {
		Count   int               `json:"count"`
		Results []mavbench.Result `json:"results"`
	}
	queryJSON(t, ts.URL+"/v1/results?workload=no_such_workload", &none)
	if none.Count != 0 || none.Results == nil {
		t.Fatalf("empty query: count=%d results=%v (want 0 and [])", none.Count, none.Results)
	}

	for _, bad := range []string{
		"?difficulty_min=abc",
		"?cores_min=5&cores_max=2",
		"?ok=maybe",
		"?limit=-3",
	} {
		var e errorResponse
		if code := queryJSON(t, ts.URL+"/v1/results"+bad, &e); code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("GET /v1/results%s = %d (%q), want 400 with JSON error", bad, code, e.Error)
		}
	}
}

// TestQueryResultsRequiresQueryableStore pins the 501 contract: a server on
// the default memory cache has no query surface, and the error names the
// flag that gives it one.
func TestQueryResultsRequiresQueryableStore(t *testing.T) {
	ts := newTestServer(t, Config{})
	var e errorResponse
	if code := queryJSON(t, ts.URL+"/v1/results", &e); code != http.StatusNotImplemented {
		t.Fatalf("query on memory-cache server = %d, want 501", code)
	}
	if !strings.Contains(e.Error, "-store-dir") {
		t.Errorf("501 error body %q does not name -store-dir", e.Error)
	}
}

// TestWorldCacheAndStoreMetrics pins the new observability series exactly: a
// three-point compute sweep over one world yields one world-cache miss and
// two hits, and the segment store's gauges reflect its stats.
func TestWorldCacheAndStoreMetrics(t *testing.T) {
	wlName := uniqueWorkload("svc_wc_metrics")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// A private world cache: the process-wide default is shared with every
	// other test in the package, so its counters are not assertable.
	srv := New(Config{Workers: 1, Store: store, WorldCache: mavbench.NewWorldCache()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := submitAs(t, ts, "", computeSweepBody(wlName, 11, 1, 2, 4))
	var ack submitResponse
	mustDecode(t, resp, &ack)
	collectResults(t, ts.URL, ack.ID)

	text := scrape(t, ts)
	for _, want := range []string{
		`# TYPE mavbench_worldcache_hits_total counter`,
		`mavbench_worldcache_hits_total 2`,
		`mavbench_worldcache_misses_total 1`,
		`mavbench_worldcache_evictions_total 0`,
		`mavbench_worldcache_entries 1`,
		`# TYPE mavbench_store_segments gauge`,
		`mavbench_store_segments 1`,
		`mavbench_store_compactions_total 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetric(text, "mavbench_worldcache")+grepMetric(text, "mavbench_store"))
		}
	}
	// The byte gauges exist and are positive (exact values depend on world
	// footprint estimates and record encoding, not worth pinning).
	for _, family := range []string{"mavbench_worldcache_bytes", "mavbench_store_segment_bytes"} {
		line := strings.TrimSpace(grepMetric(text, family))
		if line == "" || strings.HasSuffix(line, " 0") {
			t.Errorf("%s = %q, want a positive sample", family, line)
		}
	}
}

// TestWorldCacheDisabled pins the opt-out: with DisableWorldCache every run
// builds its world, and the counters stay zero.
func TestWorldCacheDisabled(t *testing.T) {
	wlName := uniqueWorkload("svc_wc_off")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	srv := New(Config{Workers: 1, DisableWorldCache: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := submitAs(t, ts, "", computeSweepBody(wlName, 3, 1, 2))
	var ack submitResponse
	mustDecode(t, resp, &ack)
	if results := collectResults(t, ts.URL, ack.ID); len(results) != 2 {
		t.Fatalf("campaign produced %d results, want 2", len(results))
	}
	text := scrape(t, ts)
	if !strings.Contains(text, "mavbench_worldcache_hits_total 0") ||
		!strings.Contains(text, "mavbench_worldcache_misses_total 0") {
		t.Errorf("disabled world cache counted activity:\n%s", grepMetric(text, "mavbench_worldcache"))
	}
}
