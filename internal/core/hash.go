package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"mavbench/internal/env"
)

// Hash returns the run's stable content address: a hex SHA-256 over the
// canonical form. Equivalent parameter sets — alias spellings, explicit
// defaults — hash identically, in any process, on any platform. It keys the
// Campaign result cache and the service's GET /v1/specs/{hash}.
//
// One "key=value" line per field, in a fixed order. Adding a field changes
// every hash (a new cache generation), which is exactly what a content
// address should do.
func (p Params) Hash() string {
	c := p.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s\n", c.Workload)
	fmt.Fprintf(&b, "cores=%d\n", c.Cores)
	fmt.Fprintf(&b, "freq_ghz=%s\n", hashFloat(c.FreqGHz))
	fmt.Fprintf(&b, "seed=%d\n", c.Seed)
	fmt.Fprintf(&b, "detector=%s\n", c.Detector)
	fmt.Fprintf(&b, "localizer=%s\n", c.Localizer)
	fmt.Fprintf(&b, "planner=%s\n", c.Planner)
	fmt.Fprintf(&b, "octomap_resolution=%s\n", hashFloat(c.OctomapResolution))
	fmt.Fprintf(&b, "dynamic_resolution=%t\n", c.DynamicResolution)
	fmt.Fprintf(&b, "coarse_resolution=%s\n", hashFloat(c.CoarseResolution))
	fmt.Fprintf(&b, "depth_noise_std=%s\n", hashFloat(c.DepthNoiseStd))
	fmt.Fprintf(&b, "cloud_offload=%t\n", c.CloudOffload)
	fmt.Fprintf(&b, "cloud_link=%s,%s,%s,%s\n", c.CloudLink.Name, hashFloat(c.CloudLink.BandwidthMbps),
		hashFloat(c.CloudLink.RTTMillis), hashFloat(c.CloudLink.DropProbability))
	fmt.Fprintf(&b, "environment=%s\n", c.Environment)
	fmt.Fprintf(&b, "scenario=%s\n", c.Scenario)
	fmt.Fprintf(&b, "difficulty=%s\n", hashFloat(c.Difficulty))
	writeKnobLine(&b, c.ScenarioKnobs)
	fmt.Fprintf(&b, "world_scale=%s\n", hashFloat(c.WorldScale))
	fmt.Fprintf(&b, "max_mission_time_s=%s\n", hashFloat(c.MaxMissionTimeS))
	fmt.Fprintf(&b, "keep_traces=%t\n", c.KeepTraces)
	// The vehicles line joins the address only for fleets (canonical
	// single-drone form is 0), so every pre-fleet hash — result stores,
	// golden traces, dedup keys — stays byte-identical.
	if c.Vehicles > 1 {
		fmt.Fprintf(&b, "vehicles=%d\n", c.Vehicles)
	}
	return sha256Hex(b.String())
}

// WorldHash returns the content address of the run's world: a hex SHA-256
// over the normalized fields world construction reads — workload, seed,
// environment/scenario selection, difficulty, scenario knobs and world
// scale. It keys the world cache. Hash is too fine for that: a compute-axis
// sweep varies cores, frequency and kernels while flying the exact same
// world, and every cell would miss. Two runs with equal WorldHash build
// byte-identical worlds (every Workload.World implementation consumes only
// these fields; see the workload package).
func (p Params) WorldHash() string {
	c := p.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s\n", c.Workload)
	fmt.Fprintf(&b, "seed=%d\n", c.Seed)
	fmt.Fprintf(&b, "environment=%s\n", c.Environment)
	fmt.Fprintf(&b, "scenario=%s\n", c.Scenario)
	fmt.Fprintf(&b, "difficulty=%s\n", hashFloat(c.Difficulty))
	writeKnobLine(&b, c.ScenarioKnobs)
	fmt.Fprintf(&b, "world_scale=%s\n", hashFloat(c.WorldScale))
	return sha256Hex(b.String())
}

// writeKnobLine writes the scenario_knobs line both hashes share; k is nil
// when no knob is set.
func writeKnobLine(b *strings.Builder, k *env.Knobs) {
	if k == nil {
		b.WriteString("scenario_knobs=\n")
		return
	}
	fmt.Fprintf(b, "scenario_knobs=%s,%s,%s,%s,%s\n",
		hashFloat(k.ObstacleDensity), hashFloat(k.ClutterScale),
		hashFloat(k.DynamicCount), hashFloat(k.DynamicSpeed), hashFloat(k.ExtentScale))
}

// hashFloat formats v in its shortest round-trip form, so equal values
// always hash equally. -0 hashes as 0: the engine treats the two alike, and
// JSON's omitempty drops both, so a -0 would not survive a round trip.
func hashFloat(v float64) string {
	if v == 0 {
		v = 0
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
