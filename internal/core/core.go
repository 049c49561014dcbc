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
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mavbench/internal/compute"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/internal/telemetry"
)

// Params is the full knob set for one benchmark run.
type Params struct {
	// Workload selects the benchmark application (see Workloads()).
	Workload string
	// Cores and FreqGHz select the TX2 operating point.
	Cores   int
	FreqGHz float64
	// Seed makes runs reproducible; it also seeds world generation.
	Seed int64

	// Plug-and-play kernels.
	Detector  string // yolo | hog | haar
	Localizer string // ground_truth | gps | orb_slam2
	Planner   string // rrt | rrt_connect | prm

	// OctomapResolution is the occupancy-map voxel size in meters
	// (0 = the benchmark default of 0.15 m).
	OctomapResolution float64
	// DynamicResolution enables the energy case study's runtime that switches
	// between OctomapResolution and CoarseResolution with obstacle density.
	DynamicResolution bool
	// CoarseResolution is the coarse setting of the dynamic policy
	// (0 = 0.80 m).
	CoarseResolution float64

	// DepthNoiseStd enables the reliability case study's depth noise (m).
	DepthNoiseStd float64

	// CloudOffload offloads the planning-stage kernels to a cloud server over
	// CloudLink (zero value = the paper's 1 Gb/s LAN).
	CloudOffload bool
	CloudLink    compute.CloudLink

	// Environment overrides the workload's default world ("urban", "indoor",
	// "farm", "disaster", "park", "empty"); empty string keeps the default.
	Environment string
	// Scenario selects a named difficulty-graded environment preset from the
	// catalog ("urban-dense"; see env.Scenarios). A bare family name selects
	// its default grade. Empty keeps Environment (or the workload default) at
	// default difficulty. Scenario and Environment are mutually exclusive —
	// a scenario already names its family.
	Scenario string
	// Difficulty overrides the scenario's grade on the continuous
	// [-1, 1] scale (-1 = sparsest, +1 = densest). 0 keeps the scenario's
	// graded difficulty (or the default grade when no scenario is set).
	Difficulty float64
	// ScenarioKnobs are per-knob overrides on top of the graded difficulty;
	// zero fields keep the graded values (see env.Knobs).
	ScenarioKnobs env.Knobs
	// WorldScale shrinks (<1) or grows (>1) the mission extent; tests use
	// small scales to stay fast. 0 means 1.0.
	WorldScale float64

	// MaxMissionTimeS bounds the mission (0 = workload default).
	MaxMissionTimeS float64
	// KeepTraces enables power/phase time-series collection.
	KeepTraces bool

	// Vehicles is the number of drones flying the mission together (0 and 1
	// both mean the classic single-vehicle run; Normalize canonicalizes to 0).
	// With N ≥ 2 the run becomes a fleet mission: one shared world, N
	// independent simulators in lockstep with inter-vehicle collision checks,
	// per-drone seeds derived by DeriveVehicleSeed, and coordinated workload
	// variants (see docs/MULTIVEHICLE.md). Vehicle count is a compute-side
	// knob: it joins ComputeHash but not WorldHash, so fleets of every size
	// share one cached world.
	Vehicles int
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

// Validate rejects unknown workload, kernel and environment names with a
// descriptive error listing the valid values. It is the single place where
// names are checked: core.Run and the public pkg/mavbench Spec builder both
// call it, so bad input fails loudly at the API boundary instead of being
// silently defaulted deep inside a run. Empty kernel fields are allowed
// (Normalize fills them); an empty Environment keeps the workload default.
func (p Params) Validate() error {
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
	if err := validateKnob("obstacle_density", p.ScenarioKnobs.ObstacleDensity); err != nil {
		return err
	}
	if err := validateKnob("clutter_scale", p.ScenarioKnobs.ClutterScale); err != nil {
		return err
	}
	if err := validateKnob("dynamic_count", p.ScenarioKnobs.DynamicCount); err != nil {
		return err
	}
	if err := validateKnob("dynamic_speed", p.ScenarioKnobs.DynamicSpeed); err != nil {
		return err
	}
	if err := validateKnob("extent_scale", p.ScenarioKnobs.ExtentScale); err != nil {
		return err
	}
	if p.Vehicles < 0 || p.Vehicles > MaxVehicles {
		return fmt.Errorf("core: vehicles = %d out of range [0, %d] (0 or 1 = single drone)", p.Vehicles, MaxVehicles)
	}
	return nil
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

// Normalize fills defaults.
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
	if p.CloudLink.BandwidthMbps == 0 {
		p.CloudLink = compute.LAN1Gbps()
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
	return env.GradeKnobs(d).OverrideWith(preset).OverrideWith(p.ScenarioKnobs)
}

// Workload is a benchmark application. Implementations construct their
// environment and wire their perception-planning-control node graph onto the
// simulator; the runner owns everything else.
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
	// Err lets a caller that collects many Results keep a failed run in its
	// slot; the Report is zero in that case. Run and RunWithCache report
	// errors through their error return instead. JSON encodes it as an
	// "error" string (see MarshalJSON) so failed runs stay visible in
	// serialized sweep output.
	Err error
}

// resultJSON is the wire form of Result: identical fields, with the error
// flattened to a string so failed runs survive serialization instead of
// silently encoding as a zero report.
type resultJSON struct {
	Report         telemetry.Report
	Params         Params
	PlatformName   string
	VehicleReports []telemetry.Report `json:",omitempty"`
	Error          string             `json:"error,omitempty"`
}

// MarshalJSON encodes the result with Err rendered as an "error" string.
func (r Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{Report: r.Report, Params: r.Params, PlatformName: r.PlatformName, VehicleReports: r.VehicleReports}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire form, restoring a non-empty "error" string
// as an opaque error value.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in resultJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*r = Result{Report: in.Report, Params: in.Params, PlatformName: in.PlatformName, VehicleReports: in.VehicleReports}
	if in.Error != "" {
		r.Err = errors.New(in.Error)
	}
	return nil
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
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
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
		cfg.Offload = compute.NewOffloader(edge, remote, p.CloudLink,
			compute.KernelShortestPath, compute.KernelFrontierExplore, compute.KernelSmoothing)
	}
	return cfg
}
