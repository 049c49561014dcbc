package mavbench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNewSpecValidatesAtBuildTime(t *testing.T) {
	if _, err := NewSpec("scanning",
		WithOperatingPoint(4, 2.2),
		WithPlanner("rrt_connect"),
		WithCloudOffload(LAN1Gbps()),
		WithWorldScale(0.4),
	); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name string
		wl   string
		opts []Option
		want string
	}{
		{"unknown workload", "surveillance", nil, "unknown workload"},
		{"empty workload", "", nil, "no workload"},
		{"unknown detector", "search_and_rescue", []Option{WithDetector("yolov9")}, "unknown detector"},
		{"unknown localizer", "scanning", []Option{WithLocalizer("lidar")}, "unknown localizer"},
		{"unknown planner", "scanning", []Option{WithPlanner("dijkstra")}, "unknown planner"},
		{"unknown environment", "scanning", []Option{WithEnvironment("ocean")}, "unknown environment"},
		{"cores out of range", "scanning", []Option{WithOperatingPoint(64, 2.2)}, "cores"},
		{"negative frequency", "scanning", []Option{WithOperatingPoint(4, -1)}, "freq_ghz"},
		{"huge resolution", "scanning", []Option{WithOctomapResolution(7)}, "octomap_resolution"},
		{"inverted dynamic policy", "scanning", []Option{WithDynamicResolution(0.8, 0.15)}, "coarse"},
		{"negative noise", "scanning", []Option{WithDepthNoise(-0.5)}, "depth_noise_std"},
		{"absurd world scale", "scanning", []Option{WithWorldScale(99)}, "world_scale"},
		{"negative mission time", "scanning", []Option{WithMaxMissionTime(-5)}, "max_mission_time_s"},
		{"broken cloud link", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: -1})}, "bandwidth"},
		// NaN passes every "v < lo || v > hi" test, and encoding/json can
		// carry neither NaN nor ±Inf into a stored Result.
		{"NaN frequency", "scanning", []Option{WithOperatingPoint(4, math.NaN())}, "freq_ghz"},
		{"NaN resolution", "scanning", []Option{WithOctomapResolution(math.NaN())}, "octomap_resolution"},
		{"NaN coarse resolution", "scanning", []Option{WithDynamicResolution(0.15, math.NaN())}, "coarse_resolution"},
		{"NaN noise", "scanning", []Option{WithDepthNoise(math.NaN())}, "depth_noise_std"},
		{"NaN world scale", "scanning", []Option{WithWorldScale(math.NaN())}, "world_scale"},
		{"infinite world scale", "scanning", []Option{WithWorldScale(math.Inf(1))}, "world_scale"},
		{"NaN mission time", "scanning", []Option{WithMaxMissionTime(math.NaN())}, "max_mission_time_s"},
		{"infinite mission time", "scanning", []Option{WithMaxMissionTime(math.Inf(1))}, "max_mission_time_s"},
		{"NaN difficulty", "scanning", []Option{WithDifficulty(math.NaN())}, "difficulty"},
		{"NaN knob", "scanning", []Option{WithScenarioKnobs(ScenarioKnobs{DynamicSpeed: math.NaN()})}, "dynamic_speed"},
		{"infinite knob", "scanning", []Option{WithScenarioKnobs(ScenarioKnobs{ExtentScale: math.Inf(1)})}, "extent_scale"},
		{"NaN bandwidth", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: math.NaN()})}, "bandwidth"},
		{"infinite bandwidth", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: math.Inf(1)})}, "bandwidth"},
		{"NaN RTT", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: 10, RTTMillis: math.NaN()})}, "rtt_ms"},
		{"infinite RTT", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: 10, RTTMillis: math.Inf(1)})}, "rtt_ms"},
		{"overflowing RTT", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: 10, RTTMillis: 1e13})}, "rtt_ms"},
		{"NaN drop probability", "scanning", []Option{WithCloudOffload(CloudLink{BandwidthMbps: 10, DropProbability: math.NaN()})}, "drop probability"},
	}
	for _, tc := range cases {
		_, err := NewSpec(tc.wl, tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSpec error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestCanonicalFillsDefaults(t *testing.T) {
	spec, err := NewSpec("scanning")
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Canonical()
	if c.Cores != 4 || c.FreqGHz != 2.2 {
		t.Errorf("default operating point = %d @ %g", c.Cores, c.FreqGHz)
	}
	if c.Detector != "yolo" || c.Localizer != "gps" || c.Planner != "rrt_connect" {
		t.Errorf("default kernels = %q %q %q", c.Detector, c.Localizer, c.Planner)
	}
	if c.CloudLink == nil || c.CloudLink.BandwidthMbps <= 0 {
		t.Error("default cloud link not filled")
	}
}

// TestHashGolden pins the content address of a fully specified spec. The
// constant was computed once and must never change spontaneously: it guards
// that Spec.Hash is deterministic across processes, platforms and rebuilds.
// If you deliberately extend Spec (a new cache generation), update the
// constant and say so in the commit message.
func TestHashGolden(t *testing.T) {
	spec, err := NewSpec("package_delivery",
		WithOperatingPoint(2, 0.8),
		WithSeed(7),
		WithLocalizer("ground_truth"),
		WithWorldScale(0.4),
		WithMaxMissionTime(900),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Updated when the scenario fields (scenario, difficulty, scenario_knobs)
	// joined the canonical form — a deliberate new cache generation.
	const golden = "58a19678fc581a6b3242697ca1ddba75300c721f8d9e915e8d3fb0173f2b3eab"
	if got := spec.Hash(); got != golden {
		t.Errorf("Hash() = %s, want %s (did Spec's canonical form change?)", got, golden)
	}
}

func TestHashCanonicalization(t *testing.T) {
	// Alias spellings and explicit defaults hash identically to the
	// canonical short form.
	short, err := NewSpec("mapping_3d", WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewSpec("mapping_3d",
		WithSeed(3),
		WithOperatingPoint(4, 2.2),
		WithDetector("yolo"),
		WithLocalizer("gps"),
		WithPlanner("rrtconnect"), // alias of rrt_connect
		WithOctomapResolution(0.15),
		WithWorldScale(1.0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if short.Hash() != explicit.Hash() {
		t.Errorf("equivalent specs hash differently:\n%s\n%s", short.Hash(), explicit.Hash())
	}
	// Any knob change must change the hash.
	other, err := NewSpec("mapping_3d", WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if short.Hash() == other.Hash() {
		t.Error("different seeds produced the same hash")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := NewSpec("scanning",
		WithOperatingPoint(3, 1.5),
		WithSeed(11),
		WithCloudOffload(LTE()),
		WithDepthNoise(0.5),
		WithTraces(),
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != spec.Hash() {
		t.Errorf("hash changed across JSON round trip:\n%s\n%s", spec.Hash(), back.Hash())
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped spec invalid: %v", err)
	}
}

// TestCanonicalIsAFixedPoint pins that canonical rtt_ms sits on the
// whole-nanosecond grid the engine flies: canonicalizing a canonical spec
// changes nothing, so a spec and its canonical form share one Hash.
func TestCanonicalIsAFixedPoint(t *testing.T) {
	drifted := 0
	for us := 1; us <= 200_000; us++ { // 0.001 .. 200 ms on a 1 µs grid
		s := Spec{Workload: "scanning", CloudLink: &CloudLink{BandwidthMbps: 100, RTTMillis: float64(us) / 1000}}
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			if drifted == 0 {
				t.Errorf("rtt_ms %g canonicalizes to %g, then to %g", s.CloudLink.RTTMillis, c.CloudLink.RTTMillis, cc.CloudLink.RTTMillis)
			}
			drifted++
		}
	}
	if drifted > 0 {
		t.Errorf("%d of 200000 rtt_ms values are not canonical fixed points", drifted)
	}
	s := mustSpec(t, "scanning", WithCloudOffload(CloudLink{BandwidthMbps: 100, RTTMillis: 4.039}))
	if s.Hash() != s.Canonical().Hash() {
		t.Errorf("rtt_ms 4.039: Hash(s) = %s, Hash(s.Canonical()) = %s", s.Hash(), s.Canonical().Hash())
	}
}

// FuzzSpecJSON checks the canonical form's contract on arbitrary spec JSON,
// without simulating: Canonical is a fixed point that keeps Hash and
// WorldHash, survives a JSON round trip, keeps a valid spec valid and shares
// no pointer with its input.
func FuzzSpecJSON(f *testing.F) {
	for _, file := range []string{"golden_traces.json", "golden_traces_multivehicle.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		var traces []struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(data, &traces); err != nil {
			f.Fatal(err)
		}
		for _, tr := range traces {
			f.Add([]byte(tr.Spec))
		}
	}
	f.Add([]byte(`{"workload":"scanning","cloud_offload":true,"cloud_link":{"bandwidth_mbps":100,"rtt_ms":4.039}}`))
	f.Add([]byte(`{"workload":"scanning","scenario_knobs":{}}`))
	f.Add([]byte(`{"workload":"scanning","cloud_link":{"bandwidth_mbps":0,"rtt_ms":5}}`))
	// Inputs that broke the contract: a -0 that JSON's omitempty drops, and
	// dynamic resolution whose unset coarse default is finer than its fine.
	f.Add([]byte(`{"workload":"scanning","difficulty":-0,"scenario_knobs":{"obstacle_density":1,"clutter_scale":-0}}`))
	f.Add([]byte(`{"workload":"scanning","dynamic_resolution":true,"octomap_resolution":1}`))
	f.Add([]byte(`{"workload":"scanning","dynamic_resolution":true,"coarse_resolution":0.1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		before, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		valid := s.Validate() == nil
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("Canonical is not a fixed point:\n%s\n%s", mustJSON(t, c), mustJSON(t, cc))
		}
		if s.Hash() != c.Hash() || s.WorldHash() != c.WorldHash() {
			t.Fatalf("canonical form changes the hashes of %s", before)
		}
		var back Spec
		if err := json.Unmarshal(mustJSON(t, c), &back); err != nil {
			t.Fatal(err)
		}
		if back.Hash() != c.Hash() {
			t.Fatalf("JSON round trip changes the hash of %s", mustJSON(t, c))
		}
		if err := c.Validate(); valid && err != nil {
			t.Fatalf("valid spec %s has an invalid canonical form: %v", before, err)
		}
		c.CloudLink.Name += "-changed"
		if c.ScenarioKnobs != nil {
			c.ScenarioKnobs.ObstacleDensity++
		}
		if after := mustJSON(t, s); !bytes.Equal(before, after) {
			t.Fatalf("writing through the canonical form changed its input:\n%s\n%s", before, after)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSweepAndRepeatSpecs(t *testing.T) {
	base, err := NewSpec("scanning", WithSeed(101), WithWorldScale(0.3))
	if err != nil {
		t.Fatal(err)
	}
	points := PaperOperatingPoints()
	if len(points) != 9 {
		t.Fatalf("paper grid has %d points", len(points))
	}
	specs := SweepSpecs(base, points)
	if len(specs) != 9 {
		t.Fatalf("sweep produced %d specs", len(specs))
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if s.Cores != points[i].Cores || s.FreqGHz != points[i].FreqGHz {
			t.Errorf("spec %d operating point = %d @ %g", i, s.Cores, s.FreqGHz)
		}
		if s.Seed != DeriveSeed(101, "scanning", points[i].Cores, points[i].FreqGHz, 0) {
			t.Errorf("spec %d seed not derived from point identity", i)
		}
		if seen[s.Hash()] {
			t.Errorf("spec %d duplicates another sweep cell's hash", i)
		}
		seen[s.Hash()] = true
	}
	repeats := RepeatSpecs(base, 3)
	if len(repeats) != 3 {
		t.Fatalf("repeats = %d", len(repeats))
	}
	for i, s := range repeats {
		// Repeat seeds derive from the canonical operating point (4 @ 2.2).
		if s.Seed != DeriveSeed(101, "scanning", 4, 2.2, i) {
			t.Errorf("repeat %d seed not derived from its index", i)
		}
	}
	if repeats[0].Seed == repeats[1].Seed {
		t.Error("repeat seeds should differ")
	}
}

func TestWorkloadListing(t *testing.T) {
	infos := Workloads()
	if len(infos) < 5 {
		t.Fatalf("expected the five paper workloads, got %d", len(infos))
	}
	found := map[string]bool{}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("workload %s has no description", info.Name)
		}
		found[info.Name] = true
	}
	for _, want := range []string{"scanning", "package_delivery", "mapping_3d", "search_and_rescue", "aerial_photography"} {
		if !found[want] {
			t.Errorf("workload %s missing from listing", want)
		}
	}
	for _, list := range [][]string{Detectors(), Localizers(), Planners(), Environments()} {
		if len(list) == 0 {
			t.Error("empty kernel/environment name list")
		}
	}
}
