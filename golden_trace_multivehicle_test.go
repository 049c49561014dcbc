// Multi-vehicle golden-trace harness: pins swarm search-and-rescue,
// cooperative mapping and multi-drone delivery missions to exact fleet and
// per-drone metrics at a fixed seed, exactly as golden_trace_test.go pins the
// single-drone workloads. The fleet runner advances N deterministic engines
// in lockstep, so these values must match bit-for-bit at every worker count.
//
// Regenerate (only when intentionally changing fleet behaviour) with:
//
//	go test -run TestMultiVehicleGoldenTraces -update .
package mavbench_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"mavbench/pkg/mavbench"
)

const mvGoldenPath = "testdata/golden_traces_multivehicle.json"

// mvTrace pins one fleet mission: the aggregate metrics plus the per-drone
// mission outcomes (full per-drone reports would bloat the golden file; the
// scalar triple below is enough to catch any behavioural drift, because every
// per-drone metric feeds one of the pinned aggregates).
type mvTrace struct {
	Name     string        `json:"name"`
	Spec     mavbench.Spec `json:"spec"`
	SpecHash string        `json:"spec_hash"`

	MissionTimeS           float64 `json:"mission_time_s"`
	FlightTimeS            float64 `json:"flight_time_s"`
	DistanceM              float64 `json:"distance_m"`
	TotalEnergyKJ          float64 `json:"total_energy_kj"`
	Success                bool    `json:"success"`
	FailureReason          string  `json:"failure_reason,omitempty"`
	InterVehicleCollisions float64 `json:"inter_vehicle_collisions"`

	VehicleMissionTimesS []float64 `json:"vehicle_mission_times_s"`
	VehicleDistancesM    []float64 `json:"vehicle_distances_m"`
	VehicleSuccess       []bool    `json:"vehicle_success"`
}

// mvGoldenSpecs builds the pinned fleet spec set: both coordinated workload
// variants (swarm SAR sectors, deconflicted delivery corridors) plus
// cooperative mapping, at two fleet sizes and across scenario families.
func mvGoldenSpecs(t testing.TB) []struct {
	name string
	spec mavbench.Spec
} {
	t.Helper()
	mk := func(name, workload string, vehicles int, opts ...mavbench.Option) struct {
		name string
		spec mavbench.Spec
	} {
		base := []mavbench.Option{
			mavbench.WithSeed(1234),
			mavbench.WithWorldScale(0.35),
			mavbench.WithMaxMissionTime(420),
			mavbench.WithVehicles(vehicles),
		}
		spec, err := mavbench.NewSpec(workload, append(base, opts...)...)
		if err != nil {
			t.Fatalf("building multi-vehicle golden spec %s: %v", name, err)
		}
		return struct {
			name string
			spec mavbench.Spec
		}{name, spec}
	}
	return []struct {
		name string
		spec mavbench.Spec
	}{
		mk("search_and_rescue/vehicles=3", "search_and_rescue", 3),
		mk("search_and_rescue/vehicles=2/scenario=urban-default", "search_and_rescue", 2,
			mavbench.WithScenario("urban-default")),
		mk("package_delivery/vehicles=2", "package_delivery", 2),
		mk("package_delivery/vehicles=3/scenario=urban-dense", "package_delivery", 3,
			mavbench.WithScenario("urban-dense")),
		mk("mapping_3d/vehicles=2", "mapping_3d", 2),
	}
}

func mvTraceFromResult(t testing.TB, name string, res mavbench.Result) mvTrace {
	t.Helper()
	tr := mvTrace{
		Name:                   name,
		Spec:                   res.Spec,
		SpecHash:               res.SpecHash,
		MissionTimeS:           res.Report.MissionTimeS,
		FlightTimeS:            res.Report.FlightTimeS,
		DistanceM:              res.Report.DistanceM,
		TotalEnergyKJ:          res.Report.TotalEnergyKJ,
		Success:                res.Report.Success,
		FailureReason:          res.Report.FailureReason,
		InterVehicleCollisions: res.Report.Counters["inter_vehicle_collisions"],
	}
	if len(res.VehicleReports) != res.Spec.Vehicles {
		t.Errorf("%s: got %d vehicle reports, want %d", name, len(res.VehicleReports), res.Spec.Vehicles)
	}
	for _, rep := range res.VehicleReports {
		tr.VehicleMissionTimesS = append(tr.VehicleMissionTimesS, rep.MissionTimeS)
		tr.VehicleDistancesM = append(tr.VehicleDistancesM, rep.DistanceM)
		tr.VehicleSuccess = append(tr.VehicleSuccess, rep.Success)
	}
	return tr
}

// runMVGoldenCampaign executes the fleet spec set at the given worker count.
func runMVGoldenCampaign(t testing.TB, workers int) []mvTrace {
	t.Helper()
	entries := mvGoldenSpecs(t)
	specs := make([]mavbench.Spec, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
	}
	results, err := mavbench.NewCampaign(specs...).SetWorkers(workers).Collect(nil)
	if err != nil {
		t.Fatalf("multi-vehicle golden campaign failed: %v", err)
	}
	traces := make([]mvTrace, len(results))
	for i, res := range results {
		traces[i] = mvTraceFromResult(t, entries[i].name, res)
	}
	return traces
}

func mvTraceJSON(t testing.TB, tr mvTrace) string {
	t.Helper()
	buf, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestMultiVehicleGoldenTraces(t *testing.T) {
	got := runMVGoldenCampaign(t, 1)

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mvGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d traces", mvGoldenPath, len(got))
		return
	}

	buf, err := os.ReadFile(mvGoldenPath)
	if err != nil {
		t.Fatalf("reading multi-vehicle golden file (regenerate with -update): %v", err)
	}
	var want []mvTrace
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", mvGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d traces, harness produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if g, w := mvTraceJSON(t, got[i]), mvTraceJSON(t, want[i]); g != w {
			t.Errorf("fleet trace %q diverged from golden:\n got: %s\nwant: %s", got[i].Name, g, w)
		}
	}
}

// TestMultiVehicleWorkerInvariance re-runs the fleet campaign on a full-width
// pool and requires bit-identical traces: fleet lockstep must not leak any
// scheduling dependence, exactly like the single-drone contract.
func TestMultiVehicleWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sequential := runMVGoldenCampaign(t, 1)
	parallel := runMVGoldenCampaign(t, runtime.GOMAXPROCS(0))
	for i := range sequential {
		if s, p := mvTraceJSON(t, sequential[i]), mvTraceJSON(t, parallel[i]); s != p {
			t.Errorf("fleet trace %q differs across worker counts:\n  workers=1: %s\n  workers=N: %s",
				sequential[i].Name, s, p)
		}
	}
}

// TestVehiclesOneEqualsLegacy requires that an explicit WithVehicles(1) is
// indistinguishable from never mentioning vehicles at all: same canonical
// spec, same hash, and a byte-identical full Result JSON. This is the
// single-drone bit-identity contract of the fleet feature.
func TestVehiclesOneEqualsLegacy(t *testing.T) {
	legacy, err := mavbench.NewSpec("package_delivery",
		mavbench.WithSeed(1234), mavbench.WithWorldScale(0.3),
		mavbench.WithLocalizer("ground_truth"), mavbench.WithMaxMissionTime(300))
	if err != nil {
		t.Fatal(err)
	}
	one, err := mavbench.NewSpec("package_delivery",
		mavbench.WithSeed(1234), mavbench.WithWorldScale(0.3),
		mavbench.WithLocalizer("ground_truth"), mavbench.WithMaxMissionTime(300),
		mavbench.WithVehicles(1))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Hash() != one.Hash() {
		t.Fatalf("WithVehicles(1) changed the spec hash: %s vs %s", legacy.Hash(), one.Hash())
	}
	if one.Canonical().Vehicles != 0 {
		t.Errorf("canonical form of vehicles=1 should be 0, got %d", one.Canonical().Vehicles)
	}

	resLegacy, err := mavbench.Run(nil, legacy)
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := mavbench.Run(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	if resOne.VehicleReports != nil {
		t.Errorf("vehicles=1 run produced VehicleReports; single-drone runs must not")
	}
	bufLegacy, err := json.Marshal(resLegacy)
	if err != nil {
		t.Fatal(err)
	}
	bufOne, err := json.Marshal(resOne)
	if err != nil {
		t.Fatal(err)
	}
	if string(bufLegacy) != string(bufOne) {
		t.Errorf("vehicles=1 result differs from legacy single-drone result:\nlegacy: %s\n  one:  %s", bufLegacy, bufOne)
	}
}

// TestVehicleWorldSharing pins the hash/cache split: fleets of every size
// share the world of the single-drone spec (equal WorldHash, cache hits on a
// fresh WorldCache) while their run identities stay distinct (Spec.Hash
// differs per fleet size).
func TestVehicleWorldSharing(t *testing.T) {
	mkSpec := func(vehicles int) mavbench.Spec {
		spec, err := mavbench.NewSpec("search_and_rescue",
			mavbench.WithSeed(1234), mavbench.WithWorldScale(0.3),
			mavbench.WithLocalizer("ground_truth"), mavbench.WithMaxMissionTime(240),
			mavbench.WithVehicles(vehicles))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	single, duo, trio := mkSpec(1), mkSpec(2), mkSpec(3)
	if single.WorldHash() != duo.WorldHash() || duo.WorldHash() != trio.WorldHash() {
		t.Fatalf("WorldHash must not depend on fleet size: %s / %s / %s",
			single.WorldHash(), duo.WorldHash(), trio.WorldHash())
	}
	if single.Hash() == duo.Hash() || duo.Hash() == trio.Hash() {
		t.Errorf("Spec.Hash must distinguish fleet sizes")
	}

	// Paired-seed world sharing in action: one cache, three fleet sizes, one
	// world build. (The drones of one fleet clone the cached world further,
	// which never touches the cache.)
	wc := mavbench.NewWorldCache()
	if _, err := mavbench.NewCampaign(single, duo, trio).SetWorkers(1).SetWorldCache(wc).Collect(nil); err != nil {
		t.Fatal(err)
	}
	st := wc.Stats()
	if st.Misses != 1 {
		t.Errorf("world cache built %d worlds for 3 fleet sizes, want 1", st.Misses)
	}
	if st.Hits != 2 {
		t.Errorf("world cache served %d hits, want 2", st.Hits)
	}
}
