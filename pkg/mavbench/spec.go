package mavbench

import (
	"mavbench/internal/compute"
	"mavbench/internal/core"
	"mavbench/internal/env"
	// Importing the workloads registers the five benchmark applications, so
	// every consumer of the public API gets a populated registry for free.
	_ "mavbench/internal/workloads"
)

// Spec is a complete, serializable description of one benchmark run. Build it
// with NewSpec (which validates and rejects bad input) or unmarshal it from
// JSON and call Validate yourself (the mavbenchd service does the latter).
// The zero value of every field means "benchmark default".
//
// Spec is the engine's run description under its public name: its 21 fields
// and their JSON names are listed in docs/API.md ("Spec fields").
type Spec core.Params

// CloudLink describes the network between the MAV and a cloud server, in
// plain wire-friendly units: name, bandwidth_mbps, rtt_ms and
// drop_probability. The engine flies rtt_ms in whole nanoseconds.
type CloudLink = compute.CloudLink

// LAN1Gbps returns the paper's cloud-offload link (1 Gb/s, 2 ms RTT).
func LAN1Gbps() CloudLink { return compute.LAN1Gbps() }

// LTE returns a contemporary cellular link (20 Mb/s, 60 ms RTT).
func LTE() CloudLink { return compute.LTE() }

// ScenarioKnobs are per-knob scenario difficulty overrides: dimensionless
// multipliers relative to the environment family's default configuration
// (obstacle_density, clutter_scale, dynamic_count, dynamic_speed,
// extent_scale). A zero field keeps the value implied by the graded
// difficulty; see docs/SCENARIOS.md for what each knob means per family.
type ScenarioKnobs = env.Knobs

// Option mutates a Spec under construction. Options never fail on their own;
// NewSpec validates the assembled spec once all options have been applied.
type Option func(*Spec)

// WithOperatingPoint selects the companion-computer operating point
// (cores × frequency), the unit of the paper's heat-map sweeps.
func WithOperatingPoint(cores int, freqGHz float64) Option {
	return func(s *Spec) { s.Cores, s.FreqGHz = cores, freqGHz }
}

// WithSeed fixes the run's random seed (world generation and noise).
func WithSeed(seed int64) Option { return func(s *Spec) { s.Seed = seed } }

// WithDetector selects the object-detector kernel (see Detectors()).
func WithDetector(name string) Option { return func(s *Spec) { s.Detector = name } }

// WithLocalizer selects the localization kernel (see Localizers()).
func WithLocalizer(name string) Option { return func(s *Spec) { s.Localizer = name } }

// WithPlanner selects the motion-planner kernel (see Planners()).
func WithPlanner(name string) Option { return func(s *Spec) { s.Planner = name } }

// WithOctomapResolution sets a static occupancy-map voxel size in meters.
func WithOctomapResolution(meters float64) Option {
	return func(s *Spec) { s.OctomapResolution = meters }
}

// WithDynamicResolution enables the energy case study's runtime that switches
// between a fine and a coarse voxel size with obstacle density.
func WithDynamicResolution(fineMeters, coarseMeters float64) Option {
	return func(s *Spec) {
		s.DynamicResolution = true
		s.OctomapResolution = fineMeters
		s.CoarseResolution = coarseMeters
	}
}

// WithDepthNoise injects Gaussian depth-camera noise (standard deviation in
// meters), the reliability case study's knob.
func WithDepthNoise(stdMeters float64) Option {
	return func(s *Spec) { s.DepthNoiseStd = stdMeters }
}

// WithCloudOffload offloads the planning-stage kernels to a cloud server
// reached over link.
func WithCloudOffload(link CloudLink) Option {
	return func(s *Spec) {
		s.CloudOffload = true
		l := link
		s.CloudLink = &l
	}
}

// WithEnvironment overrides the workload's default world (see Environments()).
func WithEnvironment(name string) Option { return func(s *Spec) { s.Environment = name } }

// WithScenario selects a named difficulty-graded scenario from the catalog
// (see Scenarios()): "urban-dense", "farm-sparse", ... A bare family name
// ("urban") selects its default grade.
func WithScenario(name string) Option { return func(s *Spec) { s.Scenario = name } }

// WithDifficulty sets the continuous scenario difficulty on the [-1, 1]
// scale: -1 is the sparse preset, 0 the default, +1 the dense preset, and
// anything in between interpolates the difficulty knobs linearly.
func WithDifficulty(d float64) Option { return func(s *Spec) { s.Difficulty = d } }

// WithScenarioKnobs overrides individual difficulty knobs (zero fields keep
// the graded values).
func WithScenarioKnobs(k ScenarioKnobs) Option {
	return func(s *Spec) {
		kk := k
		s.ScenarioKnobs = &kk
	}
}

// WithWorldScale shrinks (<1) or grows (>1) the mission extent.
func WithWorldScale(scale float64) Option { return func(s *Spec) { s.WorldScale = scale } }

// WithMaxMissionTime bounds the mission in simulated seconds.
func WithMaxMissionTime(seconds float64) Option {
	return func(s *Spec) { s.MaxMissionTimeS = seconds }
}

// WithTraces enables power/phase time-series collection in the report.
func WithTraces() Option { return func(s *Spec) { s.KeepTraces = true } }

// WithVehicles sets the number of drones flying the mission together
// (1 = the classic single-drone run; up to 8). Multi-vehicle runs share one
// world, perform inter-vehicle collision checks, and report per-drone metrics
// in Result.VehicleReports; see docs/MULTIVEHICLE.md.
func WithVehicles(n int) Option { return func(s *Spec) { s.Vehicles = n } }

// NewSpec builds and validates a run spec. Unknown workload, kernel or
// environment names and out-of-range knobs are reported here, at build time,
// with errors listing the valid values — never silently defaulted inside the
// engine.
func NewSpec(workload string, opts ...Option) (Spec, error) {
	s := Spec{Workload: workload}
	for _, opt := range opts {
		opt(&s)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks every knob of the spec. It is the engine's own validator
// (core.Params.Validate), so the public API and the internal runner can never
// disagree about what is legal.
func (s Spec) Validate() error { return core.Params(s).Validate() }

// Canonical returns the spec with every default filled in and alias kernel
// spellings resolved — the form the engine actually runs and the form Hash
// addresses. Canonicalizing an invalid spec is harmless (Hash/Canonical never
// fail); validation is a separate concern.
func (s Spec) Canonical() Spec { return Spec(core.Params(s).Normalize()) }

// Hash returns the spec's stable content address: a hex SHA-256 over the
// canonical form. Equivalent specs — alias spellings, explicit defaults —
// hash identically, in any process, on any platform. The hash is the key of
// the Campaign result cache and of the service's GET /v1/specs/{hash}.
func (s Spec) Hash() string { return core.Params(s).Hash() }

// WorldHash returns the content address of the spec's world: a hex SHA-256
// over the canonical world-affecting fields only (workload, seed,
// environment/scenario, difficulty, scenario knobs, world scale). Specs that
// differ only in compute-side knobs — operating point, kernels, resolutions,
// noise, offload, mission bound, traces, vehicles — share a WorldHash and fly
// byte-identical worlds; the world cache is keyed by it.
func (s Spec) WorldHash() string { return core.Params(s).WorldHash() }
