package mavbench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

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
type Spec struct {
	// Workload selects the benchmark application (see Workloads()).
	Workload string `json:"workload"`
	// Cores and FreqGHz select the companion-computer operating point
	// (0 = 4 cores @ 2.2 GHz).
	Cores   int     `json:"cores,omitempty"`
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// Seed makes runs reproducible; it also seeds world generation.
	Seed int64 `json:"seed,omitempty"`

	// Plug-and-play kernels (see Detectors/Localizers/Planners).
	Detector  string `json:"detector,omitempty"`
	Localizer string `json:"localizer,omitempty"`
	Planner   string `json:"planner,omitempty"`

	// Occupancy-map resolution knobs (meters).
	OctomapResolution float64 `json:"octomap_resolution,omitempty"`
	DynamicResolution bool    `json:"dynamic_resolution,omitempty"`
	CoarseResolution  float64 `json:"coarse_resolution,omitempty"`

	// DepthNoiseStd injects Gaussian depth-camera noise (meters).
	DepthNoiseStd float64 `json:"depth_noise_std,omitempty"`

	// CloudOffload runs the planning-stage kernels on a cloud server reached
	// over CloudLink (nil = the paper's 1 Gb/s LAN).
	CloudOffload bool       `json:"cloud_offload,omitempty"`
	CloudLink    *CloudLink `json:"cloud_link,omitempty"`

	// Environment overrides the workload's default world (see Environments();
	// empty keeps the default).
	Environment string `json:"environment,omitempty"`
	// Scenario selects a named difficulty-graded environment preset from the
	// catalog (see Scenarios(); "urban-dense", or a bare family name for its
	// default grade). Mutually exclusive with Environment — a scenario
	// already names its family. Empty keeps the workload default.
	Scenario string `json:"scenario,omitempty"`
	// Difficulty overrides the scenario's grade on the continuous [-1, 1]
	// scale (-1 = sparsest, +1 = densest; 0 keeps the scenario's grade).
	Difficulty float64 `json:"difficulty,omitempty"`
	// ScenarioKnobs override individual difficulty knobs on top of the
	// graded difficulty (nil = all graded).
	ScenarioKnobs *ScenarioKnobs `json:"scenario_knobs,omitempty"`
	// WorldScale shrinks (<1) or grows (>1) the mission extent (0 = 1.0).
	WorldScale float64 `json:"world_scale,omitempty"`
	// MaxMissionTimeS bounds the mission (0 = workload default).
	MaxMissionTimeS float64 `json:"max_mission_time_s,omitempty"`
	// KeepTraces enables power/phase time-series collection.
	KeepTraces bool `json:"keep_traces,omitempty"`

	// Vehicles is the number of drones flying the mission together (0 and 1
	// both mean the classic single-drone run — the canonical form is 0). With
	// N ≥ 2 the run is a fleet mission over one shared world: per-drone seeds,
	// inter-vehicle collision checks, coordinated workload variants and
	// per-drone reports in Result.VehicleReports. See docs/MULTIVEHICLE.md.
	Vehicles int `json:"vehicles,omitempty"`
}

// CloudLink describes the network between the MAV and a cloud server, in
// plain wire-friendly units.
type CloudLink struct {
	Name          string  `json:"name,omitempty"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	RTTMillis     float64 `json:"rtt_ms,omitempty"`
	// DropProbability is the chance an exchange must be retried once.
	DropProbability float64 `json:"drop_probability,omitempty"`
}

// LAN1Gbps returns the paper's cloud-offload link (1 Gb/s, 2 ms RTT).
func LAN1Gbps() CloudLink { return linkFromCompute(compute.LAN1Gbps()) }

// LTE returns a contemporary cellular link (20 Mb/s, 60 ms RTT).
func LTE() CloudLink { return linkFromCompute(compute.LTE()) }

func linkFromCompute(l compute.CloudLink) CloudLink {
	return CloudLink{
		Name:            l.Name,
		BandwidthMbps:   l.BandwidthMbps,
		RTTMillis:       float64(l.RTT) / float64(time.Millisecond),
		DropProbability: l.DropProbability,
	}
}

func (l CloudLink) compute() compute.CloudLink {
	return compute.CloudLink{
		Name:            l.Name,
		BandwidthMbps:   l.BandwidthMbps,
		RTT:             time.Duration(l.RTTMillis * float64(time.Millisecond)),
		DropProbability: l.DropProbability,
	}
}

// ScenarioKnobs are per-knob scenario difficulty overrides: dimensionless
// multipliers relative to the environment family's default configuration.
// A zero field keeps the value implied by the graded difficulty; see
// docs/SCENARIOS.md for what each knob means per family.
type ScenarioKnobs struct {
	// ObstacleDensity scales how much of the world is blocked (building
	// density, wall frequency, tree/rubble counts).
	ObstacleDensity float64 `json:"obstacle_density,omitempty"`
	// ClutterScale scales secondary clutter (building footprints and
	// heights, scattered boxes, rubble size).
	ClutterScale float64 `json:"clutter_scale,omitempty"`
	// DynamicCount scales the number of moving obstacles.
	DynamicCount float64 `json:"dynamic_count,omitempty"`
	// DynamicSpeed scales moving-obstacle speed.
	DynamicSpeed float64 `json:"dynamic_speed,omitempty"`
	// ExtentScale scales the world extents on top of WorldScale.
	ExtentScale float64 `json:"extent_scale,omitempty"`
}

func (k ScenarioKnobs) env() env.Knobs {
	return env.Knobs{
		ObstacleDensity: k.ObstacleDensity,
		ClutterScale:    k.ClutterScale,
		DynamicCount:    k.DynamicCount,
		DynamicSpeed:    k.DynamicSpeed,
		ExtentScale:     k.ExtentScale,
	}
}

func knobsFromEnv(k env.Knobs) ScenarioKnobs {
	return ScenarioKnobs{
		ObstacleDensity: k.ObstacleDensity,
		ClutterScale:    k.ClutterScale,
		DynamicCount:    k.DynamicCount,
		DynamicSpeed:    k.DynamicSpeed,
		ExtentScale:     k.ExtentScale,
	}
}

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

// Validate checks every knob of the spec. Name validation is delegated to the
// engine's single source of truth (core.Params.Validate), so the public API
// and the internal runner can never disagree about what is legal.
func (s Spec) Validate() error {
	if strings.TrimSpace(s.Workload) == "" {
		return fmt.Errorf("mavbench: spec has no workload (available: %v)", workloadNames())
	}
	switch {
	case s.Cores < 0 || s.Cores > 8:
		return fmt.Errorf("mavbench: cores = %d out of range [0, 8] (0 = default, paper sweeps 2-4)", s.Cores)
	case !inRange(s.FreqGHz, 0, 4):
		return fmt.Errorf("mavbench: freq_ghz = %g out of range [0, 4] (0 = default, paper sweeps 0.8-2.2)", s.FreqGHz)
	case !inRange(s.OctomapResolution, 0, 2):
		return fmt.Errorf("mavbench: octomap_resolution = %g m out of range [0, 2]", s.OctomapResolution)
	case !inRange(s.CoarseResolution, 0, 5):
		return fmt.Errorf("mavbench: coarse_resolution = %g m out of range [0, 5]", s.CoarseResolution)
	case s.DynamicResolution && s.OctomapResolution > 0 && s.CoarseResolution > 0 &&
		s.CoarseResolution < s.OctomapResolution:
		return fmt.Errorf("mavbench: dynamic resolution needs coarse (%g m) >= fine (%g m)",
			s.CoarseResolution, s.OctomapResolution)
	case !inRange(s.DepthNoiseStd, 0, 10):
		return fmt.Errorf("mavbench: depth_noise_std = %g m out of range [0, 10]", s.DepthNoiseStd)
	case !inRange(s.WorldScale, 0, 10):
		return fmt.Errorf("mavbench: world_scale = %g out of range [0, 10]", s.WorldScale)
	case !inRange(s.MaxMissionTimeS, 0, math.MaxFloat64):
		return fmt.Errorf("mavbench: max_mission_time_s = %g must be finite and >= 0", s.MaxMissionTimeS)
	}
	if s.CloudLink != nil {
		if rtt := s.CloudLink.RTTMillis; math.IsNaN(rtt) || math.IsInf(rtt, 0) {
			return fmt.Errorf("mavbench: cloud link %q rtt_ms = %g is not finite", s.CloudLink.Name, rtt)
		}
		if err := s.CloudLink.compute().Validate(); err != nil {
			return fmt.Errorf("mavbench: %w", err)
		}
	}
	return s.params().Validate()
}

// inRange reports whether lo <= v <= hi; NaN is in no range.
func inRange(v, lo, hi float64) bool { return v >= lo && v <= hi }

// Canonical returns the spec with every default filled in and alias kernel
// spellings resolved — the form the engine actually runs and the form Hash
// addresses. Canonicalizing an invalid spec is harmless (Hash/Canonical never
// fail); validation is a separate concern.
func (s Spec) Canonical() Spec {
	return specFromParams(s.params().Normalize())
}

// Hash returns the spec's stable content address: a hex SHA-256 over the
// canonical form. Equivalent specs — alias spellings, explicit defaults —
// hash identically, in any process, on any platform. The hash is the key of
// the Campaign result cache and of the service's GET /v1/specs/{hash}.
func (s Spec) Hash() string {
	c := s.Canonical()
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	// One "key=value" line per field, fixed order. Adding a field to Spec
	// changes every hash (a new cache generation), which is exactly what a
	// content address should do.
	fmt.Fprintf(&b, "workload=%s\n", c.Workload)
	fmt.Fprintf(&b, "cores=%d\n", c.Cores)
	fmt.Fprintf(&b, "freq_ghz=%s\n", f(c.FreqGHz))
	fmt.Fprintf(&b, "seed=%d\n", c.Seed)
	fmt.Fprintf(&b, "detector=%s\n", c.Detector)
	fmt.Fprintf(&b, "localizer=%s\n", c.Localizer)
	fmt.Fprintf(&b, "planner=%s\n", c.Planner)
	fmt.Fprintf(&b, "octomap_resolution=%s\n", f(c.OctomapResolution))
	fmt.Fprintf(&b, "dynamic_resolution=%t\n", c.DynamicResolution)
	fmt.Fprintf(&b, "coarse_resolution=%s\n", f(c.CoarseResolution))
	fmt.Fprintf(&b, "depth_noise_std=%s\n", f(c.DepthNoiseStd))
	fmt.Fprintf(&b, "cloud_offload=%t\n", c.CloudOffload)
	if c.CloudLink != nil {
		fmt.Fprintf(&b, "cloud_link=%s,%s,%s,%s\n",
			c.CloudLink.Name, f(c.CloudLink.BandwidthMbps), f(c.CloudLink.RTTMillis), f(c.CloudLink.DropProbability))
	} else {
		b.WriteString("cloud_link=\n")
	}
	fmt.Fprintf(&b, "environment=%s\n", c.Environment)
	fmt.Fprintf(&b, "scenario=%s\n", c.Scenario)
	fmt.Fprintf(&b, "difficulty=%s\n", f(c.Difficulty))
	if c.ScenarioKnobs != nil {
		fmt.Fprintf(&b, "scenario_knobs=%s,%s,%s,%s,%s\n",
			f(c.ScenarioKnobs.ObstacleDensity), f(c.ScenarioKnobs.ClutterScale),
			f(c.ScenarioKnobs.DynamicCount), f(c.ScenarioKnobs.DynamicSpeed),
			f(c.ScenarioKnobs.ExtentScale))
	} else {
		b.WriteString("scenario_knobs=\n")
	}
	fmt.Fprintf(&b, "world_scale=%s\n", f(c.WorldScale))
	fmt.Fprintf(&b, "max_mission_time_s=%s\n", f(c.MaxMissionTimeS))
	fmt.Fprintf(&b, "keep_traces=%t\n", c.KeepTraces)
	// The vehicles line joins the address only for fleets (canonical
	// single-drone form is 0), so every pre-fleet hash — result stores,
	// golden traces, dedup keys — stays byte-identical.
	if c.Vehicles > 1 {
		fmt.Fprintf(&b, "vehicles=%d\n", c.Vehicles)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// WorldHash returns the content address of the spec's world: a hex SHA-256
// over the canonical world-affecting fields only (workload, seed,
// environment/scenario, difficulty, scenario knobs, world scale). Specs that
// differ only in compute-side knobs — operating point, kernels, resolutions,
// noise, offload, mission bound, traces — share a WorldHash and fly
// byte-identical worlds; the world cache is keyed by it. The combined Hash
// is unaffected by this split and stays byte-stable.
func (s Spec) WorldHash() string { return s.params().WorldHash() }

// ComputeHash returns the content address of the spec's compute-side knobs:
// everything Hash covers that WorldHash does not. Together the two hashes
// factor a spec's identity along the world/compute boundary; a compute-axis
// sweep holds WorldHash fixed while ComputeHash varies per cell.
func (s Spec) ComputeHash() string { return s.params().ComputeHash() }

// params converts the spec to the engine's parameter struct.
func (s Spec) params() core.Params {
	p := core.Params{
		Workload:          s.Workload,
		Cores:             s.Cores,
		FreqGHz:           s.FreqGHz,
		Seed:              s.Seed,
		Detector:          s.Detector,
		Localizer:         s.Localizer,
		Planner:           s.Planner,
		OctomapResolution: s.OctomapResolution,
		DynamicResolution: s.DynamicResolution,
		CoarseResolution:  s.CoarseResolution,
		DepthNoiseStd:     s.DepthNoiseStd,
		CloudOffload:      s.CloudOffload,
		Environment:       s.Environment,
		Scenario:          s.Scenario,
		Difficulty:        s.Difficulty,
		WorldScale:        s.WorldScale,
		MaxMissionTimeS:   s.MaxMissionTimeS,
		KeepTraces:        s.KeepTraces,
		Vehicles:          s.Vehicles,
	}
	if s.CloudLink != nil {
		p.CloudLink = s.CloudLink.compute()
	}
	if s.ScenarioKnobs != nil {
		p.ScenarioKnobs = s.ScenarioKnobs.env()
	}
	return p
}

// specFromParams is the inverse of params.
func specFromParams(p core.Params) Spec {
	s := Spec{
		Workload:          p.Workload,
		Cores:             p.Cores,
		FreqGHz:           p.FreqGHz,
		Seed:              p.Seed,
		Detector:          p.Detector,
		Localizer:         p.Localizer,
		Planner:           p.Planner,
		OctomapResolution: p.OctomapResolution,
		DynamicResolution: p.DynamicResolution,
		CoarseResolution:  p.CoarseResolution,
		DepthNoiseStd:     p.DepthNoiseStd,
		CloudOffload:      p.CloudOffload,
		Environment:       p.Environment,
		Scenario:          p.Scenario,
		Difficulty:        p.Difficulty,
		WorldScale:        p.WorldScale,
		MaxMissionTimeS:   p.MaxMissionTimeS,
		KeepTraces:        p.KeepTraces,
		Vehicles:          p.Vehicles,
	}
	if p.CloudLink != (compute.CloudLink{}) {
		l := linkFromCompute(p.CloudLink)
		s.CloudLink = &l
	}
	if !p.ScenarioKnobs.IsZero() {
		k := knobsFromEnv(p.ScenarioKnobs)
		s.ScenarioKnobs = &k
	}
	return s
}
