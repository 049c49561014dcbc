package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/client"
	"mavbench/pkg/mavbench/server"
)

// gatedWorkload blocks every run until its gate closes — for holding a
// campaign active while quota behavior is probed.
type gatedWorkload struct {
	name string
	gate chan struct{}
}

func (w *gatedWorkload) Name() string        { return w.name }
func (w *gatedWorkload) Description() string { return "gated workload for client tests" }
func (w *gatedWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	<-w.gate
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *gatedWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "client/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

func startTenantedService(t *testing.T, tenants []server.TenantConfig) *httptest.Server {
	t.Helper()
	// A world cache of its own, so no world cached by an earlier test (or an
	// earlier run of this one) lets a gated run skip its gate in World.
	cfg := server.Config{Workers: 1, Tenants: tenants, WorldCache: mavbench.NewWorldCache()}
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestClientAuthErrors pins the 403 contract end to end: a keyless or
// wrong-keyed client gets a typed *APIError with the machine-readable code,
// and the right key flows through to an ack that names the tenant.
func TestClientAuthErrors(t *testing.T) {
	core.RegisterFor(t, &clientWorkload{name: "client_auth"})
	ts := startTenantedService(t, []server.TenantConfig{
		{Name: "acme", APIKey: "key-acme", MaxPriority: 4},
	})
	specs := []mavbench.Spec{{Workload: "client_auth", Seed: 1, MaxMissionTimeS: 30}}

	var apiErr *client.APIError
	_, err := client.New(ts.URL).Submit(context.Background(), specs)
	if !errors.As(err, &apiErr) {
		t.Fatalf("keyless submit err = %v (%T), want *client.APIError", err, err)
	}
	if apiErr.Status != http.StatusForbidden || apiErr.Code != "missing_api_key" {
		t.Errorf("keyless error = %+v, want 403 missing_api_key", apiErr)
	}
	if apiErr.Temporary() {
		t.Error("auth failure reported as temporary")
	}

	wrong := client.New(ts.URL)
	wrong.APIKey = "key-wrong"
	if _, err := wrong.Submit(context.Background(), specs); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusForbidden || apiErr.Code != "unknown_api_key" {
		t.Errorf("wrong-key error = %v, want 403 unknown_api_key", err)
	}

	good := client.New(ts.URL)
	good.APIKey = "key-acme"
	good.Priority = 9 // above the tenant ceiling: the server clamps it
	ack, err := good.Submit(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Tenant != "acme" || ack.Priority != 4 {
		t.Errorf("ack = %+v, want tenant acme at clamped priority 4", ack)
	}
}

// TestClientQuotaExceeded holds a campaign active against a one-campaign
// quota and asserts the second submission surfaces 429 quota_exceeded.
func TestClientQuotaExceeded(t *testing.T) {
	gated := &gatedWorkload{name: "client_quota", gate: make(chan struct{})}
	core.RegisterFor(t, gated)
	t.Cleanup(func() { close(gated.gate) })
	ts := startTenantedService(t, []server.TenantConfig{
		{Name: "small", APIKey: "key-small", MaxActiveCampaigns: 1},
	})
	cl := client.New(ts.URL)
	cl.APIKey = "key-small"

	if _, err := cl.Submit(context.Background(), []mavbench.Spec{
		{Workload: "client_quota", Seed: 1, MaxMissionTimeS: 30},
	}); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	_, err := cl.Submit(context.Background(), []mavbench.Spec{
		{Workload: "client_quota", Seed: 2, MaxMissionTimeS: 30},
	})
	if !errors.As(err, &apiErr) {
		t.Fatalf("over-quota err = %v (%T)", err, err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "quota_exceeded" {
		t.Errorf("over-quota error = %+v, want 429 quota_exceeded", apiErr)
	}
	if !apiErr.Temporary() {
		t.Error("quota rejection not reported as temporary")
	}
}

// TestClientRateLimited pins retry-after plumbing: the typed body field and
// the Retry-After header both surface as APIError.RetryAfter.
func TestClientRateLimited(t *testing.T) {
	core.RegisterFor(t, &clientWorkload{name: "client_rate"})
	ts := startTenantedService(t, []server.TenantConfig{
		{Name: "slow", APIKey: "key-slow", RatePerSec: 0.01, Burst: 1},
	})
	cl := client.New(ts.URL)
	cl.APIKey = "key-slow"
	specs := []mavbench.Spec{{Workload: "client_rate", Seed: 1, MaxMissionTimeS: 30}}

	if _, err := cl.Submit(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := cl.Submit(context.Background(), specs); !errors.As(err, &apiErr) {
		t.Fatalf("over-rate err = %v", err)
	}
	if apiErr.Code != "rate_limited" || apiErr.Status != http.StatusTooManyRequests {
		t.Errorf("rate error = %+v, want 429 rate_limited", apiErr)
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", apiErr.RetryAfter)
	}
}

// TestClientRetryAfterHeaderFallback: a plain 429 with only a Retry-After
// header (no typed body) still yields a populated RetryAfter.
func TestClientRetryAfterHeaderFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)

	_, err := client.New(ts.URL).Submit(context.Background(), []mavbench.Spec{{Workload: "x"}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", apiErr.RetryAfter)
	}
	if apiErr.Message != "slow down" {
		t.Errorf("non-JSON body message = %q", apiErr.Message)
	}
}

// TestClientTruncatedNDJSONStream: a result stream sheared mid-line must
// surface a decode error, never a silently short result set.
func TestClientTruncatedNDJSONStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(`{"index":0,"spec":{"workload":"x"}}` + "\n"))
		_, _ = w.Write([]byte(`{"index":1,"spe`)) // sheared mid-line
	}))
	t.Cleanup(ts.Close)

	var seen int
	err := client.New(ts.URL).Results(context.Background(), "c0", func(mavbench.Result) error {
		seen++
		return nil
	})
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if seen != 1 {
		t.Errorf("delivered %d results before the shear, want 1", seen)
	}
}
