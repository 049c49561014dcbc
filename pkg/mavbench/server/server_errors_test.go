package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mavbench/internal/core"
	"mavbench/pkg/mavbench"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// collectResults streams every NDJSON result of a campaign (blocking until
// the campaign is done).
func collectResults(t *testing.T, baseURL, id string) []mavbench.Result {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	var out []mavbench.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res mavbench.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerCacheEvictionUnderFIFOPressure pins the service's shared
// result-cache behaviour when unique-spec traffic exceeds the cache bound:
// a one-entry FIFO cache serves an immediately repeated spec from cache, and
// re-simulates a spec whose entry was evicted by newer traffic.
func TestServerCacheEvictionUnderFIFOPressure(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_fifo_workload"})
	ts := newTestServer(t, Config{Workers: 1, Store: mavbench.NewBoundedMemoryCache(1)})

	run := func(seed int) mavbench.Result {
		body := fmt.Sprintf(`{"specs": [{"workload": "svc_fifo_workload", "seed": %d, "max_mission_time_s": 30}]}`, seed)
		ack := submit(t, ts, body)
		results := collectResults(t, ts.URL, ack.ID)
		if len(results) != 1 || !results[0].OK() {
			t.Fatalf("seed %d campaign results = %+v", seed, results)
		}
		return results[0]
	}

	if res := run(1); res.Cached {
		t.Error("first run of seed 1 claims to be cached")
	}
	if res := run(1); !res.Cached {
		t.Error("immediate repeat of seed 1 was re-simulated instead of cached")
	}
	// Unique traffic evicts seed 1 from the one-entry FIFO cache...
	if res := run(2); res.Cached {
		t.Error("first run of seed 2 claims to be cached")
	}
	// ...so the next seed-1 submission must be a fresh simulation again.
	if res := run(1); res.Cached {
		t.Error("evicted spec served from cache after FIFO pressure")
	}
	// And a repeat of the now-resident spec hits again.
	if res := run(1); !res.Cached {
		t.Error("repeat after re-simulation not cached")
	}
}

// TestResultsStreamStopsOnClientDisconnect guards the streaming handler's
// exit path: a client that reads one result and walks away mid-stream must
// not wedge the server — subsequent requests for the same campaign still
// stream to completion.
func TestResultsStreamStopsOnClientDisconnect(t *testing.T) {
	fast := &serviceWorkload{name: "svc_disconnect_fast"}
	gated := &serviceWorkload{name: "svc_disconnect_gated", gate: make(chan struct{})}
	core.RegisterFor(t, fast, gated)
	// A world cache of its own, as in TestResultsStreamIncrementally.
	ts := newTestServer(t, Config{Workers: 1, WorldCache: mavbench.NewWorldCache()})

	ack := submit(t, ts, `{"specs": [
		{"workload": "svc_disconnect_fast", "seed": 1, "max_mission_time_s": 30},
		{"workload": "svc_disconnect_gated", "seed": 2, "max_mission_time_s": 30}
	]}`)

	// First client reads the fast run's result, then disconnects while the
	// gated run keeps the campaign (and the handler's wait loop) alive.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + ack.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading first streamed result: %v", err)
	}
	var first mavbench.Result
	if err := json.Unmarshal([]byte(line), &first); err != nil || !first.OK() {
		t.Fatalf("first streamed result %q: %v", line, err)
	}
	resp.Body.Close() // walk away mid-stream

	close(gated.gate)
	deadline := time.Now().Add(30 * time.Second)
	for {
		results := collectResults(t, ts.URL, ack.ID)
		if len(results) == 2 {
			if !results[0].OK() || !results[1].OK() {
				t.Fatalf("results after reconnect = %+v", results)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never completed after client disconnect (have %d results)", len(results))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
