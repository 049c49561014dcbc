package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mavbench/internal/core"
)

// twoTenants is the roster most tenancy tests run under.
func twoTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "team-a", APIKey: "key-a", MaxActiveCampaigns: 2, MaxQueuedSpecs: 8, MaxPriority: 4, Weight: 2},
		{Name: "team-b", APIKey: "key-b", MaxActiveCampaigns: 1, MaxQueuedSpecs: 4},
	}
}

// submitAs posts a campaign with an API key and returns the raw response.
func submitAs(t *testing.T, ts *httptest.Server, apiKey, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeTypedError reads the typed admission-error contract off a response.
func decodeTypedError(t *testing.T, resp *http.Response) errorResponse {
	t.Helper()
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("admission error body is not JSON: %v", err)
	}
	if e.Error == "" {
		t.Error("admission error has empty message")
	}
	return e
}

func specBody(workload string, seeds ...int) string {
	var parts []string
	for _, seed := range seeds {
		parts = append(parts, fmt.Sprintf(`{"workload": %q, "seed": %d, "max_mission_time_s": 30}`, workload, seed))
	}
	return `{"specs": [` + strings.Join(parts, ",") + `]}`
}

// TestTenantAuthenticationRequired pins the 403 contract: a tenanted server
// rejects keyless and unknown-key submissions with machine-readable codes,
// and accepts the configured key (echoing the tenant in the ack).
func TestTenantAuthenticationRequired(t *testing.T) {
	wlName := uniqueWorkload("svc_tenant_auth")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	ts := newTestServer(t, Config{Workers: 2, Tenants: twoTenants()})

	missing := submitAs(t, ts, "", specBody(wlName, 1))
	if missing.StatusCode != http.StatusForbidden {
		t.Errorf("keyless submit = %d, want 403", missing.StatusCode)
	}
	if e := decodeTypedError(t, missing); e.Code != "missing_api_key" {
		t.Errorf("keyless code = %q, want missing_api_key", e.Code)
	}

	unknown := submitAs(t, ts, "key-nope", specBody(wlName, 1))
	if unknown.StatusCode != http.StatusForbidden {
		t.Errorf("unknown-key submit = %d, want 403", unknown.StatusCode)
	}
	if e := decodeTypedError(t, unknown); e.Code != "unknown_api_key" {
		t.Errorf("unknown-key code = %q, want unknown_api_key", e.Code)
	}

	good := submitAs(t, ts, "key-a", specBody(wlName, 1))
	defer good.Body.Close()
	if good.StatusCode != http.StatusAccepted {
		t.Fatalf("authorized submit = %d, want 202", good.StatusCode)
	}
	var ack submitResponse
	if err := json.NewDecoder(good.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Tenant != "team-a" {
		t.Errorf("ack tenant = %q, want team-a", ack.Tenant)
	}
	// The other endpoints stay open: tenancy guards submission, not reads.
	var wr workloadsResponse
	getJSON(t, ts, "/v1/workloads", &wr)
}

// TestTenantConcurrencyQuota pins the active-campaign quota: the limit
// rejects the excess submission with 429 quota_exceeded, and a finished
// campaign frees its slot.
func TestTenantConcurrencyQuota(t *testing.T) {
	gated := &serviceWorkload{name: uniqueWorkload("svc_tenant_quota"), gate: make(chan struct{})}
	core.RegisterFor(t, gated)
	ts := newTestServer(t, Config{Workers: 1, Tenants: twoTenants()})

	first := submitAs(t, ts, "key-b", specBody(gated.name, 1))
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", first.StatusCode)
	}
	var ack submitResponse
	_ = json.NewDecoder(first.Body).Decode(&ack)
	first.Body.Close()

	over := submitAs(t, ts, "key-b", specBody(gated.name, 2))
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", over.StatusCode)
	}
	if e := decodeTypedError(t, over); e.Code != "quota_exceeded" {
		t.Errorf("over-quota code = %q, want quota_exceeded", e.Code)
	}
	// team-a's quota is separate: its submissions are unaffected.
	other := submitAs(t, ts, "key-a", specBody(gated.name, 3))
	if other.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant blocked by team-b's quota: %d", other.StatusCode)
	}
	other.Body.Close()

	close(gated.gate)
	collectResults(t, ts.URL, ack.ID) // blocks until the campaign finishes
	waitFor(t, time.Second, func() bool {
		resp := submitAs(t, ts, "key-b", specBody(gated.name, 4))
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusAccepted
	}, "quota slot never freed after the campaign finished")
}

// TestTenantBacklogQuota pins the queued-spec quota: total outstanding specs
// across a tenant's campaigns cannot exceed max_queued_specs.
func TestTenantBacklogQuota(t *testing.T) {
	gated := &serviceWorkload{name: uniqueWorkload("svc_tenant_backlog"), gate: make(chan struct{})}
	core.RegisterFor(t, gated)
	t.Cleanup(func() { close(gated.gate) })
	ts := newTestServer(t, Config{Workers: 1, Tenants: twoTenants()})

	// team-b allows 4 queued specs: a 3-spec campaign fits, a second 3-spec
	// campaign would make 6 and is refused even though the concurrency quota
	// for this tenant is not the binding limit here (use team-a: 2 active, 8
	// queued — submit 2 campaigns of 5: second would be 10 > 8).
	first := submitAs(t, ts, "key-a", specBody(gated.name, 1, 2, 3, 4, 5))
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", first.StatusCode)
	}
	first.Body.Close()
	second := submitAs(t, ts, "key-a", specBody(gated.name, 6, 7, 8, 9, 10))
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlog-busting submit = %d, want 429", second.StatusCode)
	}
	if e := decodeTypedError(t, second); e.Code != "quota_exceeded" || !strings.Contains(e.Error, "queued") {
		t.Errorf("backlog rejection = %+v", e)
	}
	// A smaller campaign still fits under the backlog cap.
	third := submitAs(t, ts, "key-a", specBody(gated.name, 11, 12, 13))
	if third.StatusCode != http.StatusAccepted {
		t.Errorf("fitting submit = %d, want 202", third.StatusCode)
	}
	third.Body.Close()
}

// TestTenantQuotaUnderConcurrentSubmission hammers one tenant's concurrency
// quota from many goroutines: exactly quota-many submissions may win, no
// matter how the requests interleave. Run under -race this also pins the
// admission lock.
func TestTenantQuotaUnderConcurrentSubmission(t *testing.T) {
	gated := &serviceWorkload{name: uniqueWorkload("svc_tenant_race"), gate: make(chan struct{})}
	core.RegisterFor(t, gated)
	t.Cleanup(func() { close(gated.gate) })
	roster := []TenantConfig{{Name: "racer", APIKey: "key-r", MaxActiveCampaigns: 3}}
	ts := newTestServer(t, Config{Workers: 1, Tenants: roster})

	const attempts = 24
	statuses := make([]int, attempts)
	var wg sync.WaitGroup
	wg.Add(attempts)
	for i := 0; i < attempts; i++ {
		go func(i int) {
			defer wg.Done()
			resp := submitAs(t, ts, "key-r", specBody(gated.name, i+1))
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	accepted, rejected := 0, 0
	for _, st := range statuses {
		switch st {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected submit status %d", st)
		}
	}
	if accepted != 3 || rejected != attempts-3 {
		t.Errorf("concurrent admission let %d through (quota 3), rejected %d", accepted, rejected)
	}
}

// TestTenantRateLimit pins the 429 rate_limited contract: the token bucket
// admits the burst, then rejects with retry_after_s and a Retry-After header.
func TestTenantRateLimit(t *testing.T) {
	wlName := uniqueWorkload("svc_tenant_rate")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	roster := []TenantConfig{{Name: "slow", APIKey: "key-s", RatePerSec: 0.1, Burst: 2}}
	ts := newTestServer(t, Config{Workers: 2, Tenants: roster})

	for i := 0; i < 2; i++ {
		resp := submitAs(t, ts, "key-s", specBody(wlName, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submission %d = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	limited := submitAs(t, ts, "key-s", specBody(wlName, 3))
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit = %d, want 429", limited.StatusCode)
	}
	retryAfter := limited.Header.Get("Retry-After")
	secs, err := strconv.Atoi(retryAfter)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", retryAfter)
	}
	e := decodeTypedError(t, limited)
	if e.Code != "rate_limited" || e.RetryAfterS <= 0 {
		t.Errorf("rate rejection = %+v", e)
	}
}

// TestTenantPriorityClamped pins the priority ceiling: a tenant asking for
// more priority than its max_priority gets the clamped value back.
func TestTenantPriorityClamped(t *testing.T) {
	wlName := uniqueWorkload("svc_tenant_prio")
	core.RegisterFor(t, &serviceWorkload{name: wlName})
	ts := newTestServer(t, Config{Workers: 2, Tenants: twoTenants()})

	body := fmt.Sprintf(`{"specs": [{"workload": %q, "seed": 1, "max_mission_time_s": 30}], "priority": 9}`, wlName)
	resp := submitAs(t, ts, "key-a", body) // team-a: max_priority 4
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var ack submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Priority != 4 {
		t.Errorf("ack priority = %d, want clamped 4", ack.Priority)
	}
	var status statusResponse
	getJSON(t, ts, "/v1/campaigns/"+ack.ID, &status)
	if status.Priority != 4 || status.Tenant != "team-a" {
		t.Errorf("status = %+v", status)
	}
}

// TestLoadTenants pins the roster file format and its validation.
func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `{"tenants": [
		{"name": "a", "api_key": "ka", "max_active_campaigns": 2},
		{"name": "b", "api_key": "kb", "rate_per_sec": 1.5}
	]}`)
	ts, err := LoadTenants(good)
	if err != nil || len(ts) != 2 || ts[0].Name != "a" || ts[1].RatePerSec != 1.5 {
		t.Fatalf("LoadTenants = %+v, %v", ts, err)
	}
	bare := write("bare.json", `[{"name": "solo", "api_key": "ks"}]`)
	if ts, err := LoadTenants(bare); err != nil || len(ts) != 1 {
		t.Fatalf("bare-array LoadTenants = %+v, %v", ts, err)
	}
	for name, content := range map[string]string{
		"noname.json": `[{"api_key": "k"}]`,
		"nokey.json":  `[{"name": "x"}]`,
		"dup.json":    `[{"name": "x", "api_key": "k"}, {"name": "x", "api_key": "k2"}]`,
		"dupkey.json": `[{"name": "x", "api_key": "k"}, {"name": "y", "api_key": "k"}]`,
		"junk.json":   `{"nope": true}`,
	} {
		if _, err := LoadTenants(write(name, content)); err == nil {
			t.Errorf("LoadTenants(%s) accepted invalid roster", name)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
