package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/client"
	"mavbench/pkg/mavbench/server"
)

// clientWorkload is a one-simulated-second workload for client tests.
type clientWorkload struct{ name string }

func (w *clientWorkload) Name() string        { return w.name }
func (w *clientWorkload) Description() string { return "fake workload for client tests" }
func (w *clientWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *clientWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "client/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

func startService(t *testing.T) *client.Client {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

func TestClientRunCollectsInSubmissionOrder(t *testing.T) {
	core.RegisterFor(t, &clientWorkload{name: "client_run"})
	cl := startService(t)
	specs := []mavbench.Spec{
		{Workload: "client_run", Seed: 3, MaxMissionTimeS: 30},
		{Workload: "client_run", Seed: 1, MaxMissionTimeS: 30},
		{Workload: "client_run", Seed: 2, MaxMissionTimeS: 30},
	}
	results, err := cl.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Index != i {
			t.Errorf("result %d has index %d (submission order broken)", i, res.Index)
		}
		if res.Spec.Seed != specs[i].Seed {
			t.Errorf("result %d is for seed %d, want %d", i, res.Spec.Seed, specs[i].Seed)
		}
		if !res.OK() {
			t.Errorf("result %d failed: %v", i, res.Err())
		}
		if res.SpecHash != specs[i].Hash() {
			t.Errorf("result %d content address mismatch", i)
		}
	}
}

func TestClientRunStreamDeliversEveryResult(t *testing.T) {
	core.RegisterFor(t, &clientWorkload{name: "client_stream"})
	cl := startService(t)
	specs := []mavbench.Spec{
		{Workload: "client_stream", Seed: 1, MaxMissionTimeS: 30},
		{Workload: "client_stream", Seed: 2, MaxMissionTimeS: 30},
	}
	seen := map[int]bool{}
	err := cl.RunStream(context.Background(), specs, func(res mavbench.Result) error {
		seen[res.Index] = res.OK()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || !seen[0] || !seen[1] {
		t.Fatalf("streamed results = %v", seen)
	}
}

func TestClientSurfacesAPIErrors(t *testing.T) {
	cl := startService(t)
	_, err := cl.Run(context.Background(), []mavbench.Spec{{Workload: "no_such_workload_anywhere"}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *client.APIError", err, err)
	}
	if apiErr.Status != 400 {
		t.Errorf("status = %d, want 400", apiErr.Status)
	}
	if !strings.Contains(apiErr.Message, "no_such_workload_anywhere") {
		t.Errorf("message %q does not name the bad workload", apiErr.Message)
	}

	if err := cl.Results(context.Background(), "c000000000000000", func(mavbench.Result) error { return nil }); err == nil {
		t.Error("streaming an unknown campaign id did not error")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown campaign error = %v", err)
	}
}

func TestClientRunBatch(t *testing.T) {
	core.RegisterFor(t, &clientWorkload{name: "client_batch"})
	cl := startService(t)
	var got []mavbench.Result
	err := cl.RunBatch(context.Background(), []mavbench.Spec{
		{Workload: "client_batch", Seed: 9, MaxMissionTimeS: 30},
	}, func(res mavbench.Result) error {
		got = append(got, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].OK() {
		t.Fatalf("batch results = %+v", got)
	}
}
