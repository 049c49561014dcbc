package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mavbench/pkg/mavbench"
)

func postSearch(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf
}

// searchBody is a small adversarial search: 7 missions in all.
const searchBody = `{"workload": "package_delivery", "cores": 2, "freq_ghz": 0.8, "seed": 7,
	"objective": "qof", "generations": 1, "population": 3, "repeats": 1}`

func TestSearchEndpoint(t *testing.T) {
	ts := startServer(t)
	status, buf := postSearch(t, ts, searchBody)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/search = %d: %s", status, buf)
	}
	var frontier mavbench.Frontier
	if err := json.Unmarshal(buf, &frontier); err != nil {
		t.Fatalf("parsing frontier: %v", err)
	}
	if frontier.Workload != "package_delivery" || frontier.Family != "urban" {
		t.Errorf("frontier names %s/%s", frontier.Workload, frontier.Family)
	}
	if got, want := len(frontier.Generations), 2; got != want {
		t.Errorf("frontier has %d generations, want %d", got, want)
	}
	if frontier.Budget.Population != 3 || frontier.Budget.Repeats != 1 {
		t.Errorf("budget not echoed: %+v", frontier.Budget)
	}
	if frontier.Best.Knobs.ObstacleDensity == 0 {
		t.Errorf("best candidate has no knob vector: %+v", frontier.Best)
	}

	// The endpoint is deterministic: the same request body returns the same
	// frontier byte-for-byte.
	status2, buf2 := postSearch(t, ts, searchBody)
	if status2 != http.StatusOK {
		t.Fatalf("second POST /v1/search = %d: %s", status2, buf2)
	}
	if !bytes.Equal(buf, buf2) {
		t.Errorf("same search request returned different frontiers:\n%s\n%s", buf, buf2)
	}
}

func TestSearchEndpointRejections(t *testing.T) {
	ts := startServer(t)
	cases := []struct {
		name, body, want string
	}{
		{"bad objective", `{"workload": "package_delivery", "objective": "speed"}`, "objective"},
		{"unknown field", `{"workload": "package_delivery", "budget": 9}`, "budget"},
		{"bad workload", `{"workload": "no_such", "family": "urban"}`, "workload"},
	}
	for _, tc := range cases {
		status, buf := postSearch(t, ts, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(string(buf), tc.want) {
			t.Errorf("%s: got %d %s, want 400 mentioning %q", tc.name, status, buf, tc.want)
		}
	}

	// The synchronous endpoint enforces the configured budget cap.
	capped := httptest.NewServer(New(Config{Workers: 2, MaxSearchRuns: 10}).Handler())
	defer capped.Close()
	resp, err := http.Post(capped.URL+"/v1/search", "application/json",
		strings.NewReader(`{"workload": "package_delivery"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(buf), "limit") {
		t.Errorf("budget cap: got %d %s, want 400 mentioning the limit", resp.StatusCode, buf)
	}
}
