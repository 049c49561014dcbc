// Package core is the public framework of the MAVBench reproduction: the
// workload registry, the run configuration ("knobs") and the runner that
// assembles a closed-loop simulation for a workload, executes it and returns
// its quality-of-flight report.
//
// The package mirrors how the original MAVBench is used: pick a workload,
// pick the companion-computer operating point (cores × frequency), pick the
// plug-and-play kernels (detector, localizer, planner), optionally enable the
// case-study knobs (OctoMap resolution policy, sensor noise, cloud
// offloading), run, and read the QoF metrics.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"mavbench/internal/compute"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/internal/telemetry"
)

// Params is the full knob set for one benchmark run. The public API exposes
// it as mavbench.Spec, so its JSON names are the wire form of every spec.
// A zero field means "benchmark default"; Normalize fills the defaults in.
type Params struct {
	// Workload selects the benchmark application (see Workloads()).
	Workload string `json:"workload"`
	// Cores and FreqGHz select the companion-computer operating point
	// (0 = 4 cores @ 2.2 GHz).
	Cores   int     `json:"cores,omitempty"`
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// Seed makes runs reproducible; it also seeds world generation.
	Seed int64 `json:"seed,omitempty"`

	// Plug-and-play kernels (see Detectors/Localizers/Planners).
	Detector  string `json:"detector,omitempty"`  // yolo | hog | haar
	Localizer string `json:"localizer,omitempty"` // ground_truth | gps | orb_slam2
	Planner   string `json:"planner,omitempty"`   // rrt | rrt_connect | prm

	// OctomapResolution is the occupancy-map voxel size in meters
	// (0 = the benchmark default of 0.15 m).
	OctomapResolution float64 `json:"octomap_resolution,omitempty"`
	// DynamicResolution enables the energy case study's runtime that switches
	// between OctomapResolution and CoarseResolution with obstacle density.
	DynamicResolution bool `json:"dynamic_resolution,omitempty"`
	// CoarseResolution is the coarse setting of the dynamic policy
	// (0 = 0.80 m).
	CoarseResolution float64 `json:"coarse_resolution,omitempty"`

	// DepthNoiseStd injects Gaussian depth-camera noise (meters), the
	// reliability case study's knob.
	DepthNoiseStd float64 `json:"depth_noise_std,omitempty"`

	// CloudOffload runs the planning-stage kernels on a cloud server reached
	// over CloudLink (nil = the paper's 1 Gb/s LAN).
	CloudOffload bool               `json:"cloud_offload,omitempty"`
	CloudLink    *compute.CloudLink `json:"cloud_link,omitempty"`

	// Environment overrides the workload's default world ("urban", "indoor",
	// "farm", "disaster", "park", "empty"); empty keeps the default.
	Environment string `json:"environment,omitempty"`
	// Scenario selects a named difficulty-graded environment preset from the
	// catalog ("urban-dense"; see env.Scenarios). A bare family name selects
	// its default grade. Empty keeps Environment (or the workload default) at
	// default difficulty. Scenario and Environment are mutually exclusive —
	// a scenario already names its family.
	Scenario string `json:"scenario,omitempty"`
	// Difficulty overrides the scenario's grade on the continuous
	// [-1, 1] scale (-1 = sparsest, +1 = densest). 0 keeps the scenario's
	// graded difficulty (or the default grade when no scenario is set).
	Difficulty float64 `json:"difficulty,omitempty"`
	// ScenarioKnobs override individual difficulty knobs on top of the
	// graded difficulty; nil or zero fields keep the graded values (see
	// env.Knobs).
	ScenarioKnobs *env.Knobs `json:"scenario_knobs,omitempty"`
	// WorldScale shrinks (<1) or grows (>1) the mission extent; tests use
	// small scales to stay fast. 0 means 1.0.
	WorldScale float64 `json:"world_scale,omitempty"`

	// MaxMissionTimeS bounds the mission (0 = workload default).
	MaxMissionTimeS float64 `json:"max_mission_time_s,omitempty"`
	// KeepTraces enables power/phase time-series collection.
	KeepTraces bool `json:"keep_traces,omitempty"`

	// Vehicles is the number of drones flying the mission together (0 and 1
	// both mean the classic single-vehicle run; Normalize canonicalizes to 0).
	// With N ≥ 2 the run becomes a fleet mission: one shared world, N
	// independent simulators in lockstep with inter-vehicle collision checks,
	// per-drone seeds derived by DeriveVehicleSeed, and coordinated workload
	// variants (see docs/MULTIVEHICLE.md). Vehicle count joins Hash but not
	// WorldHash, so fleets of every size share one cached world.
	Vehicles int `json:"vehicles,omitempty"`
}

// MaxVehicles bounds the fleet size; larger swarms exhaust small worlds and
// mostly measure the collision checker.
const MaxVehicles = 8

// Detectors returns the canonical object-detector kernel names.
func Detectors() []string { return []string{"haar", "hog", "yolo"} }

// Localizers returns the canonical localization kernel names.
func Localizers() []string { return []string{"gps", "ground_truth", "orb_slam2"} }

// Planners returns the canonical motion-planner kernel names.
func Planners() []string { return []string{"prm", "rrt", "rrt_connect"} }

// Environments returns the canonical environment-override names.
func Environments() []string {
	return []string{"disaster", "empty", "farm", "indoor", "park", "urban"}
}

// Scenarios returns the canonical scenario-catalog names (see env.Scenarios).
func Scenarios() []string { return env.Scenarios() }

// kernelAliases maps the spelling variants the kernel constructors accept to
// their canonical names, so validation and the constructors can never
// disagree about what is legal.
var kernelAliases = map[string]string{
	"groundtruth": "ground_truth",
	"slam":        "orb_slam2",
	"vins_mono":   "orb_slam2",
	"rrtconnect":  "rrt_connect",
	"prm_astar":   "prm",
}

// canonicalName resolves aliases and reports whether name is one of valid.
func canonicalName(name string, valid []string) (string, bool) {
	if c, ok := kernelAliases[name]; ok {
		name = c
	}
	for _, v := range valid {
		if name == v {
			return name, true
		}
	}
	return name, false
}

// Validate checks every knob and rejects unknown workload, kernel and
// environment names with a descriptive error listing the valid values. It is
// the single validator: core.Run and mavbench.Spec both call it, so bad input
// fails loudly at the API boundary instead of being silently defaulted deep
// inside a run. Empty kernel fields are allowed (Normalize fills them); an
// empty Environment keeps the workload default. The range and cloud-link
// messages carry the public package's prefix: Spec.Validate reports them.
func (p Params) Validate() error {
	if strings.TrimSpace(p.Workload) == "" {
		return fmt.Errorf("mavbench: spec has no workload (available: %v)", Workloads())
	}
	res := p.Normalize() // the resolutions the engine flies, defaults filled
	switch {
	case p.Cores < 0 || p.Cores > 8:
		return fmt.Errorf("mavbench: cores = %d out of range [0, 8] (0 = default, paper sweeps 2-4)", p.Cores)
	case !inRange(p.FreqGHz, 0, 4):
		return fmt.Errorf("mavbench: freq_ghz = %g out of range [0, 4] (0 = default, paper sweeps 0.8-2.2)", p.FreqGHz)
	case !inRange(p.OctomapResolution, 0, 2):
		return fmt.Errorf("mavbench: octomap_resolution = %g m out of range [0, 2]", p.OctomapResolution)
	case !inRange(p.CoarseResolution, 0, 5):
		return fmt.Errorf("mavbench: coarse_resolution = %g m out of range [0, 5]", p.CoarseResolution)
	case p.DynamicResolution && res.CoarseResolution < res.OctomapResolution:
		return fmt.Errorf("mavbench: dynamic resolution needs coarse (%g m) >= fine (%g m)",
			res.CoarseResolution, res.OctomapResolution)
	case !inRange(p.DepthNoiseStd, 0, 10):
		return fmt.Errorf("mavbench: depth_noise_std = %g m out of range [0, 10]", p.DepthNoiseStd)
	case !inRange(p.WorldScale, 0, 10):
		return fmt.Errorf("mavbench: world_scale = %g out of range [0, 10]", p.WorldScale)
	case !inRange(p.MaxMissionTimeS, 0, math.MaxFloat64):
		return fmt.Errorf("mavbench: max_mission_time_s = %g must be finite and >= 0", p.MaxMissionTimeS)
	}
	if l := p.CloudLink; l != nil {
		if math.IsNaN(l.RTTMillis) || math.IsInf(l.RTTMillis, 0) {
			return fmt.Errorf("mavbench: cloud link %q rtt_ms = %g is not finite", l.Name, l.RTTMillis)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("mavbench: %w", err)
		}
	}
	if _, err := Lookup(p.Workload); err != nil {
		return err
	}
	if p.Detector != "" {
		if _, ok := canonicalName(p.Detector, Detectors()); !ok {
			return fmt.Errorf("core: unknown detector %q (valid: %v)", p.Detector, Detectors())
		}
	}
	if p.Localizer != "" {
		if _, ok := canonicalName(p.Localizer, Localizers()); !ok {
			return fmt.Errorf("core: unknown localizer %q (valid: %v)", p.Localizer, Localizers())
		}
	}
	if p.Planner != "" {
		if _, ok := canonicalName(p.Planner, Planners()); !ok {
			return fmt.Errorf("core: unknown planner %q (valid: %v)", p.Planner, Planners())
		}
	}
	if p.Environment != "" {
		if _, ok := canonicalName(p.Environment, Environments()); !ok {
			return fmt.Errorf("core: unknown environment %q (valid: %v, empty = workload default)",
				p.Environment, Environments())
		}
	}
	if p.Scenario != "" {
		if _, ok := env.LookupScenario(p.Scenario); !ok {
			return fmt.Errorf("core: unknown scenario %q (valid: %v, or a bare family name; empty = workload default)",
				p.Scenario, Scenarios())
		}
		if p.Environment != "" {
			return fmt.Errorf("core: scenario %q and environment %q both set — a scenario already names its environment family; set one or the other",
				p.Scenario, p.Environment)
		}
	}
	if !(p.Difficulty >= env.MinDifficulty && p.Difficulty <= env.MaxDifficulty) { // NaN fails too
		return fmt.Errorf("core: difficulty = %g out of range [%g, %g] (0 = scenario default)",
			p.Difficulty, env.MinDifficulty, env.MaxDifficulty)
	}
	k := p.knobs()
	if err := validateKnob("obstacle_density", k.ObstacleDensity); err != nil {
		return err
	}
	if err := validateKnob("clutter_scale", k.ClutterScale); err != nil {
		return err
	}
	if err := validateKnob("dynamic_count", k.DynamicCount); err != nil {
		return err
	}
	if err := validateKnob("dynamic_speed", k.DynamicSpeed); err != nil {
		return err
	}
	if err := validateKnob("extent_scale", k.ExtentScale); err != nil {
		return err
	}
	if p.Vehicles < 0 || p.Vehicles > MaxVehicles {
		return fmt.Errorf("core: vehicles = %d out of range [0, %d] (0 or 1 = single drone)", p.Vehicles, MaxVehicles)
	}
	return nil
}

// inRange reports whether lo <= v <= hi; NaN is in no range.
func inRange(v, lo, hi float64) bool { return v >= lo && v <= hi }

// knobs returns the scenario knob overrides, zero when unset.
func (p Params) knobs() env.Knobs {
	if p.ScenarioKnobs == nil {
		return env.Knobs{}
	}
	return *p.ScenarioKnobs
}

// maxKnob bounds every scenario knob multiplier; larger values produce
// degenerate worlds (solid blocks, stadium-sized vehicles).
const maxKnob = 8.0

// validateKnob checks one scenario knob multiplier (0 = unset, use the
// graded value).
func validateKnob(name string, v float64) error {
	if !(v >= 0 && v <= maxKnob) { // NaN fails too
		return fmt.Errorf("core: scenario knob %s = %g out of range [0, %g] (0 = graded default)", name, v, maxKnob)
	}
	return nil
}

// Normalize returns the canonical form: every default filled in and alias
// spellings resolved — the form the engine runs and the form Hash addresses.
// The result never shares a pointer with p.
func (p Params) Normalize() Params {
	if p.Cores <= 0 {
		p.Cores = 4
	}
	if p.FreqGHz <= 0 {
		p.FreqGHz = compute.TX2FreqHighGHz
	}
	if p.Detector == "" {
		p.Detector = "yolo"
	}
	if p.Localizer == "" {
		p.Localizer = "gps"
	}
	if p.Planner == "" {
		p.Planner = "rrt_connect"
	}
	// Canonicalize alias spellings ("slam", "rrtconnect", ...) so equivalent
	// parameter sets are identical after normalization (pkg/mavbench hashes
	// the normalized form).
	p.Detector, _ = canonicalName(p.Detector, Detectors())
	p.Localizer, _ = canonicalName(p.Localizer, Localizers())
	p.Planner, _ = canonicalName(p.Planner, Planners())
	if p.Scenario != "" {
		// A bare family name ("urban") is shorthand for its default grade.
		p.Scenario = env.CanonicalScenarioName(p.Scenario)
	}
	if p.OctomapResolution <= 0 {
		p.OctomapResolution = 0.15
	}
	if p.CoarseResolution <= 0 {
		p.CoarseResolution = 0.80
	}
	if p.WorldScale <= 0 {
		p.WorldScale = 1.0
	}
	link := compute.LAN1Gbps()
	if p.CloudLink != nil && p.CloudLink.BandwidthMbps != 0 {
		link = p.CloudLink.Normalize()
	}
	p.CloudLink = &link
	if k := p.knobs(); k.IsZero() {
		p.ScenarioKnobs = nil
	} else {
		p.ScenarioKnobs = &k
	}
	if p.Vehicles <= 1 {
		// 0 is the canonical single-vehicle spelling — it keeps hashes and
		// serialized forms of classic runs byte-identical to the pre-fleet era.
		p.Vehicles = 0
	}
	return p
}

// VehicleCount returns the effective number of drones (always ≥ 1).
func (p Params) VehicleCount() int {
	if p.Vehicles < 1 {
		return 1
	}
	return p.Vehicles
}

// OperatingPoint returns the compute operating point of the run.
func (p Params) OperatingPoint() compute.OperatingPoint {
	return compute.OperatingPoint{Cores: p.Cores, FreqGHz: p.FreqGHz}
}

// ScenarioFamily resolves the environment family the run flies in: the
// scenario's family when a scenario is set, otherwise the Environment
// override, otherwise the workload's default (passed by the workload).
func (p Params) ScenarioFamily(workloadDefault string) string {
	if p.Scenario != "" {
		if s, ok := env.LookupScenario(p.Scenario); ok {
			return s.Family
		}
	}
	if p.Environment != "" {
		return p.Environment
	}
	return workloadDefault
}

// EffectiveKnobs resolves the run's difficulty knobs: the scenario grade's
// knob set (default grade when no scenario is set), re-graded by the
// continuous Difficulty override when non-zero, then overridden per-field by
// the scenario's pinned preset knobs (frontier presets), then by any explicit
// ScenarioKnobs. The result is fully resolved — every field set — and
// EffectiveKnobs of a default run is exactly env.DefaultKnobs.
func (p Params) EffectiveKnobs() env.Knobs {
	d := p.Difficulty
	var preset env.Knobs
	if p.Scenario != "" {
		if s, ok := env.LookupScenario(p.Scenario); ok {
			if d == 0 {
				d = s.Difficulty
			}
			preset = s.PresetKnobs
		}
	}
	return env.GradeKnobs(d).OverrideWith(preset).OverrideWith(p.knobs())
}

// Workload is a benchmark application. Implementations construct their
// environment and wire their perception-planning-control node graph onto the
// simulator; the runner owns everything else. The runner validates and
// normalizes the Params before it calls World or Setup, so both receive the
// canonical form and need not call Normalize themselves.
//
// A single registered instance serves every run, and a Runner pool calls
// World and Setup from multiple goroutines concurrently — implementations
// must keep per-run state on the simulator (or local to the call), not on
// the Workload value.
type Workload interface {
	// Name is the registry key ("scanning", "package_delivery", ...).
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// World builds the workload's environment and returns the vehicle start
	// position.
	World(p Params) (*env.World, geom.Vec3, error)
	// Setup wires the application onto the simulator.
	Setup(s *sim.Simulator, p Params) error
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Workload{}
)

// Register adds a workload to the registry. It panics on duplicates so
// mis-wired init() registration is caught immediately.
func Register(w Workload) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if w == nil || w.Name() == "" {
		panic("core: Register with nil or unnamed workload")
	}
	if _, dup := registry[w.Name()]; dup {
		panic(fmt.Sprintf("core: workload %q registered twice", w.Name()))
	}
	registry[w.Name()] = w
}

// RegisterFor registers ws for the life of one test: each is removed from the
// registry again when the test's cleanup runs, so the test can run repeatedly
// in one process (go test -count=N). t is usually a *testing.T.
func RegisterFor(t interface{ Cleanup(func()) }, ws ...Workload) {
	for _, w := range ws {
		Register(w)
		name := w.Name()
		t.Cleanup(func() {
			registryMu.Lock()
			defer registryMu.Unlock()
			delete(registry, name)
		})
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q (available: %v)", name, Workloads())
	}
	return w, nil
}

// Workloads returns the registered workload names, sorted.
func Workloads() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result couples a QoF report with the parameters that produced it.
type Result struct {
	Report telemetry.Report
	Params Params
	// PlatformName identifies the simulated companion computer.
	PlatformName string
	// VehicleReports holds the per-drone QoF reports of a multi-vehicle run,
	// in vehicle-index order; Report is then their telemetry.Merge aggregate.
	// Nil for single-vehicle runs.
	VehicleReports []telemetry.Report
}

// Run executes one benchmark run described by p.
func Run(p Params) (Result, error) { return RunWithCache(p, nil) }

// RunWithCache executes one benchmark run, provisioning the world through wc
// when non-nil: the world for p's WorldHash is built once and every
// subsequent run with the same world identity receives a deep clone, so a
// compute-axis sweep pays world construction a single time. A nil cache
// builds the world directly — results are bit-identical either way (the
// clone reproduces obstacle, patrol and RNG state exactly; see env.Clone).
func RunWithCache(p Params, wc *env.WorldCache) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	p = p.Normalize()
	w, err := Lookup(p.Workload)
	if err != nil {
		return Result{}, err
	}
	var world *env.World
	var start geom.Vec3
	if wc != nil {
		world, start, err = wc.GetOrBuild(p.WorldHash(), func() (*env.World, geom.Vec3, error) {
			return w.World(p)
		})
	} else {
		world, start, err = w.World(p)
	}
	if err != nil {
		return Result{}, fmt.Errorf("core: building world for %s: %w", p.Workload, err)
	}

	return runFleet(p, w, compute.TX2(p.Cores, p.FreqGHz), world, start)
}

// simConfig translates run parameters into one drone's simulator
// configuration.
func simConfig(p Params, platform compute.Platform) sim.Config {
	cfg := sim.DefaultConfig(p.Seed)
	cfg.Platform = platform
	cfg.DepthNoiseStd = p.DepthNoiseStd
	cfg.KeepTraces = p.KeepTraces
	if p.MaxMissionTimeS > 0 {
		cfg.MaxMissionTimeS = p.MaxMissionTimeS
	}
	if p.CloudOffload {
		remote := compute.NewCostModel(compute.CloudServer())
		edge := compute.NewCostModel(platform)
		cfg.Offload = compute.NewOffloader(edge, remote, *p.CloudLink,
			compute.KernelShortestPath, compute.KernelFrontierExplore, compute.KernelSmoothing)
	}
	return cfg
}
