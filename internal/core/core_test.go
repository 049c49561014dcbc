package core

import (
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mavbench/internal/compute"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
)

type fakeWorkload struct {
	name string
	// setupRan is atomic because one registered Workload instance serves
	// every concurrent run of a Runner pool.
	setupRan atomic.Bool
}

func (f *fakeWorkload) Name() string        { return f.name }
func (f *fakeWorkload) Description() string { return "fake workload for tests" }
func (f *fakeWorkload) World(p Params) (*env.World, geom.Vec3, error) {
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (f *fakeWorkload) Setup(s *sim.Simulator, p Params) error {
	f.setupRan.Store(true)
	s.Engine().Schedule(des.Seconds(1), "fake/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

func TestNormalizeDefaults(t *testing.T) {
	p := Params{}.Normalize()
	if p.Cores != 4 || p.FreqGHz != compute.TX2FreqHighGHz {
		t.Errorf("default operating point = %d cores @ %v GHz", p.Cores, p.FreqGHz)
	}
	if p.Detector != "yolo" || p.Localizer != "gps" || p.Planner != "rrt_connect" {
		t.Errorf("default kernels = %q %q %q", p.Detector, p.Localizer, p.Planner)
	}
	if p.OctomapResolution != 0.15 || p.CoarseResolution != 0.80 {
		t.Errorf("default resolutions = %v / %v", p.OctomapResolution, p.CoarseResolution)
	}
	if p.WorldScale != 1.0 {
		t.Errorf("default world scale = %v", p.WorldScale)
	}
	if p.CloudLink.BandwidthMbps <= 0 {
		t.Error("default cloud link not filled")
	}
	op := p.OperatingPoint()
	if op.Cores != 4 || op.FreqGHz != compute.TX2FreqHighGHz {
		t.Errorf("OperatingPoint = %v", op)
	}
}

func TestNormalizeCanonicalizesAliases(t *testing.T) {
	p := Params{Localizer: "slam", Planner: "rrtconnect", Scenario: "urban"}.Normalize()
	if p.Localizer != "orb_slam2" || p.Planner != "rrt_connect" {
		t.Errorf("aliases not canonicalized: %q %q", p.Localizer, p.Planner)
	}
	if p.Scenario != "urban-default" {
		t.Errorf("bare scenario family not canonicalized: %q", p.Scenario)
	}
}

func TestScenarioResolution(t *testing.T) {
	// No scenario: the workload default family at identity knobs.
	p := Params{}
	if fam := p.ScenarioFamily("farm"); fam != "farm" {
		t.Errorf("default family = %q", fam)
	}
	if k := p.EffectiveKnobs(); k != env.DefaultKnobs() {
		t.Errorf("default knobs = %+v", k)
	}

	// Environment override picks the family without touching difficulty.
	p = Params{Environment: "urban"}
	if fam := p.ScenarioFamily("farm"); fam != "urban" {
		t.Errorf("environment family = %q", fam)
	}

	// A scenario picks both the family and the graded knobs.
	p = Params{Scenario: "urban-dense"}
	if fam := p.ScenarioFamily("farm"); fam != "urban" {
		t.Errorf("scenario family = %q", fam)
	}
	if k := p.EffectiveKnobs(); k != env.GradeKnobs(env.MaxDifficulty) {
		t.Errorf("dense knobs = %+v", k)
	}

	// A non-zero Difficulty re-grades the scenario...
	p = Params{Scenario: "urban-dense", Difficulty: -1}
	if k := p.EffectiveKnobs(); k != env.GradeKnobs(env.MinDifficulty) {
		t.Errorf("re-graded knobs = %+v", k)
	}
	// ...and explicit knob overrides win per field.
	p.ScenarioKnobs = env.Knobs{DynamicSpeed: 3}
	if k := p.EffectiveKnobs(); k.DynamicSpeed != 3 || k.ObstacleDensity != env.GradeKnobs(env.MinDifficulty).ObstacleDensity {
		t.Errorf("override knobs = %+v", k)
	}
}

func TestValidateScenarioFields(t *testing.T) {
	fw := &fakeWorkload{name: "scenario_validate_workload"}
	Register(fw)
	defer func() {
		registryMu.Lock()
		delete(registry, fw.name)
		registryMu.Unlock()
	}()

	if err := (Params{Workload: fw.name, Scenario: "disaster-sparse", Difficulty: 0.5}).Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Workload: fw.name, Scenario: "urban-extreme"}, "unknown scenario"},
		{Params{Workload: fw.name, Scenario: "urban-dense", Environment: "farm"}, "set one or the other"},
		{Params{Workload: fw.name, Difficulty: 1.5}, "difficulty"},
		{Params{Workload: fw.name, ScenarioKnobs: env.Knobs{ClutterScale: -1}}, "clutter_scale"},
		{Params{Workload: fw.name, ScenarioKnobs: env.Knobs{ObstacleDensity: 99}}, "obstacle_density"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want %q error", tc.p, err, tc.want)
		}
	}
}

func TestValidateRejectsUnknownNames(t *testing.T) {
	fw := &fakeWorkload{name: "validate_test_workload"}
	Register(fw)
	defer func() {
		registryMu.Lock()
		delete(registry, fw.name)
		registryMu.Unlock()
	}()

	ok := Params{Workload: fw.name, Detector: "hog", Localizer: "gps", Planner: "prm", Environment: "indoor"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	// Empty kernels and environment are legal (defaults / workload default).
	if err := (Params{Workload: fw.name}).Validate(); err != nil {
		t.Fatalf("empty kernels rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Params)
		want   string
	}{
		{func(p *Params) { p.Workload = "bogus" }, "unknown workload"},
		{func(p *Params) { p.Detector = "yol" }, "unknown detector"},
		{func(p *Params) { p.Localizer = "slammy" }, "unknown localizer"},
		{func(p *Params) { p.Planner = "a_star" }, "unknown planner"},
		{func(p *Params) { p.Environment = "moon" }, "unknown environment"},
	}
	for _, tc := range cases {
		p := ok
		tc.mutate(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want %q error listing valid values", p, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "valid") && !strings.Contains(err.Error(), "available") {
			t.Errorf("error %q does not list the valid values", err)
		}
	}
	// Run surfaces the same error instead of defaulting silently.
	if _, err := Run(Params{Workload: fw.name, Detector: "yol"}); err == nil {
		t.Error("Run accepted an unknown detector")
	}
}

func TestResultJSONCarriesError(t *testing.T) {
	res := Result{Params: Params{Workload: "w"}, Err: errors.New("mission exploded")}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "mission exploded") {
		t.Fatalf("marshaled result hides the error: %s", data)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != "mission exploded" {
		t.Errorf("round-tripped error = %v", back.Err)
	}
	// Successful results omit the error field entirely.
	data, err = json.Marshal(Result{PlatformName: "tx2"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"error"`) {
		t.Errorf("successful result serialized an error field: %s", data)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	fw := &fakeWorkload{name: "fake_test_workload"}
	Register(fw)
	defer func() {
		registryMu.Lock()
		delete(registry, fw.name)
		registryMu.Unlock()
	}()

	got, err := Lookup(fw.name)
	if err != nil || got != Workload(fw) {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	found := false
	for _, n := range Workloads() {
		if n == fw.name {
			found = true
		}
	}
	if !found {
		t.Error("registered workload missing from Workloads()")
	}
	if _, err := Lookup("not_registered"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("Lookup of unknown workload: %v", err)
	}
}

func TestRegisterPanicsOnDuplicateAndNil(t *testing.T) {
	fw := &fakeWorkload{name: "dup_workload"}
	Register(fw)
	defer func() {
		registryMu.Lock()
		delete(registry, fw.name)
		registryMu.Unlock()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration should panic")
			}
		}()
		Register(&fakeWorkload{name: "dup_workload"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil workload should panic")
			}
		}()
		Register(nil)
	}()
}

func TestRunWithFakeWorkload(t *testing.T) {
	fw := &fakeWorkload{name: "runner_test_workload"}
	Register(fw)
	defer func() {
		registryMu.Lock()
		delete(registry, fw.name)
		registryMu.Unlock()
	}()

	res, err := Run(Params{Workload: fw.name, Seed: 3, MaxMissionTimeS: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.setupRan.Load() {
		t.Error("Setup never ran")
	}
	if !res.Report.Success {
		t.Errorf("report = %+v", res.Report)
	}
	if res.PlatformName == "" {
		t.Error("platform name missing")
	}
	if res.Params.Workload != fw.name {
		t.Error("params not echoed")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(Params{Workload: "definitely_missing"}); err == nil {
		t.Error("expected error")
	}
}

func TestCloudOffloadConfiguration(t *testing.T) {
	fw := &fakeWorkload{name: "offload_test_workload"}
	Register(fw)
	defer func() {
		registryMu.Lock()
		delete(registry, fw.name)
		registryMu.Unlock()
	}()
	p := Params{Workload: fw.name, CloudOffload: true, MaxMissionTimeS: 30}
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
}
