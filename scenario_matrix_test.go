// Scenario-matrix smoke harness: one short mission per (workload × difficulty
// preset) tier, pinned to a committed manifest of spec hashes and mission
// outcomes. The CI scenario-matrix job runs exactly this test; it guards two
// things the golden traces alone cannot:
//
//   - zero failed runs: every cell of the matrix must complete without an
//     engine error at every difficulty grade (mission failure — a collision
//     in a dense world — is a legitimate outcome and is pinned, but a crash,
//     validation error or panic is not);
//   - stable content addresses: the Spec.Hash of every cell is pinned, so an
//     accidental change to the spec canonicalization (which would silently
//     invalidate every persistent result store and fleet dedup key) fails here
//     with a readable diff.
//
// Regenerate (only when intentionally changing the spec schema or the
// scenario grading) with:
//
//	go test -run TestScenarioMatrix -update .
package mavbench_test

import (
	"encoding/json"
	"os"
	"testing"

	"mavbench/pkg/mavbench"
)

const matrixManifestPath = "testdata/scenario_matrix.json"

// matrixCell pins one (workload, scenario) combination.
type matrixCell struct {
	Workload string `json:"workload"`
	Scenario string `json:"scenario"`
	// Vehicles is the fleet size of a swarm cell (omitted for the classic
	// single-drone cells, matching the spec's canonical form).
	Vehicles int    `json:"vehicles,omitempty"`
	SpecHash string `json:"spec_hash"`
	// Success records the pinned mission outcome (collisions in dense
	// worlds legitimately fail missions; that outcome must be stable, not
	// hidden).
	Success bool `json:"success"`
}

// workloadFamilies maps every workload to its home environment family, the
// one its difficulty tiers grade.
var workloadFamilies = map[string]string{
	"scanning":           "farm",
	"package_delivery":   "urban",
	"mapping_3d":         "disaster",
	"search_and_rescue":  "disaster",
	"aerial_photography": "park",
}

// matrixSpecs builds the matrix: every workload at each difficulty preset of
// its home family, on small worlds with short missions.
func matrixSpecs(t testing.TB) ([]matrixCell, []mavbench.Spec) {
	t.Helper()
	var cells []matrixCell
	var specs []mavbench.Spec
	for _, info := range mavbench.Workloads() {
		if info.Name == "fleet_bench" {
			continue // test-only stub registered by bench_fleet_test.go, not a mission
		}
		family, ok := workloadFamilies[info.Name]
		if !ok {
			t.Fatalf("workload %s has no home family registered in the matrix harness", info.Name)
		}
		names := []string{family + "-sparse", family + "-default", family + "-dense"}
		// Frontier presets discovered by the adversarial scenario search join
		// the workload's home-family column, so their pinned knob vectors are
		// exercised by the same zero-failed-runs and stable-hash gates as the
		// graded tiers.
		for _, frontier := range mavbench.FrontierScenarios() {
			if frontier.Family == family {
				names = append(names, frontier.Name)
			}
		}
		for _, scenario := range names {
			spec, err := mavbench.NewSpec(info.Name,
				mavbench.WithScenario(scenario),
				mavbench.WithSeed(1234),
				mavbench.WithWorldScale(0.3),
				mavbench.WithLocalizer("ground_truth"),
				mavbench.WithMaxMissionTime(300),
			)
			if err != nil {
				t.Fatalf("building matrix spec %s × %s: %v", info.Name, scenario, err)
			}
			cells = append(cells, matrixCell{Workload: info.Name, Scenario: scenario, SpecHash: spec.Hash()})
			specs = append(specs, spec)
		}
	}
	// One three-drone swarm search-and-rescue cell per environment family:
	// the multi-vehicle runner must complete without engine errors in every
	// family's default scenario, and its fleet spec hashes must stay stable.
	for _, family := range []string{"disaster", "farm", "park", "urban"} {
		scenario := family + "-default"
		spec, err := mavbench.NewSpec("search_and_rescue",
			mavbench.WithScenario(scenario),
			mavbench.WithSeed(1234),
			mavbench.WithWorldScale(0.3),
			mavbench.WithLocalizer("ground_truth"),
			mavbench.WithMaxMissionTime(300),
			mavbench.WithVehicles(3),
		)
		if err != nil {
			t.Fatalf("building swarm matrix spec %s: %v", scenario, err)
		}
		cells = append(cells, matrixCell{
			Workload: "search_and_rescue", Scenario: scenario, Vehicles: 3, SpecHash: spec.Hash(),
		})
		specs = append(specs, spec)
	}
	return cells, specs
}

func TestScenarioMatrix(t *testing.T) {
	cells, specs := matrixSpecs(t)
	results, err := mavbench.NewCampaign(specs...).Collect(nil)
	if err != nil {
		t.Fatalf("scenario matrix had failed runs: %v", err)
	}
	for i, res := range results {
		if resErr := res.Err(); resErr != nil {
			t.Errorf("%s × %s failed: %v", cells[i].Workload, cells[i].Scenario, resErr)
			continue
		}
		cells[i].Success = res.Report.Success
	}
	if t.Failed() {
		return
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixManifestPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", matrixManifestPath, len(cells))
		return
	}

	buf, err := os.ReadFile(matrixManifestPath)
	if err != nil {
		t.Fatalf("reading matrix manifest (regenerate with -update): %v", err)
	}
	var want []matrixCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", matrixManifestPath, err)
	}
	if len(want) != len(cells) {
		t.Fatalf("manifest has %d cells, matrix produced %d (regenerate with -update)", len(want), len(cells))
	}
	for i, cell := range cells {
		if cell != want[i] {
			t.Errorf("matrix cell %s × %s drifted:\n got: %+v\nwant: %+v",
				cell.Workload, cell.Scenario, cell, want[i])
		}
	}
}
