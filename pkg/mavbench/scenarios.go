package mavbench

import (
	"mavbench/internal/env"
)

// ScenarioInfo describes one entry of the scenario catalog: an environment
// family at a graded difficulty, or a frontier preset discovered by the
// adversarial scenario search.
type ScenarioInfo struct {
	// Name is the catalog key ("urban-dense"), the value WithScenario takes.
	Name string `json:"name"`
	// Family is the environment generator ("urban", "indoor", "farm",
	// "disaster", "park", "empty").
	Family string `json:"family"`
	// Grade is the preset tier ("sparse", "default", "dense"), or "frontier"
	// for presets discovered by the adversarial scenario search.
	Grade string `json:"grade"`
	// Difficulty is the grade's position on the continuous [-1, 1] scale
	// (frontier presets carry their calibrated difficulty, which may
	// extrapolate past +1).
	Difficulty float64 `json:"difficulty"`
	// Knobs, for frontier presets, is the pinned knob vector the search
	// converged to; nil for the graded tiers (their knobs follow from
	// Difficulty).
	Knobs *ScenarioKnobs `json:"knobs,omitempty"`
	// Description is a one-line human-readable summary.
	Description string `json:"description"`
}

func scenarioInfo(s env.Scenario) ScenarioInfo {
	info := ScenarioInfo{
		Name:        s.Name,
		Family:      s.Family,
		Grade:       s.Grade,
		Difficulty:  s.Difficulty,
		Description: s.Description,
	}
	if !s.PresetKnobs.IsZero() {
		k := s.PresetKnobs
		info.Knobs = &k
	}
	return info
}

// Scenarios returns the full scenario catalog, sorted by name: every
// environment family at its sparse, default and dense grades, plus the
// frontier presets discovered by the adversarial scenario search.
func Scenarios() []ScenarioInfo {
	cat := env.ScenarioCatalog()
	out := make([]ScenarioInfo, len(cat))
	for i, s := range cat {
		out[i] = scenarioInfo(s)
	}
	return out
}

// FrontierScenarios returns the catalog's frontier presets — scenarios
// discovered by the adversarial scenario search, each pinning the knob vector
// that maximized the search objective at a named compute operating point —
// sorted by name. See docs/SCENARIOS.md for the method and how to reproduce a
// preset.
func FrontierScenarios() []ScenarioInfo {
	cat := env.FrontierScenarios()
	out := make([]ScenarioInfo, len(cat))
	for i, s := range cat {
		out[i] = scenarioInfo(s)
	}
	return out
}

// ScenarioNames returns the catalog keys, sorted — the valid WithScenario
// values (bare family names are accepted as shorthand for "-default").
func ScenarioNames() []string { return env.Scenarios() }

// ScenarioFamilies returns the environment family names, sorted.
func ScenarioFamilies() []string { return env.ScenarioFamilies() }

// DifficultyGrades returns the difficulty values of the graded presets, in
// increasing difficulty: sparse (-1), default (0), dense (+1). They are the
// natural sample points for a coarse difficulty sweep.
func DifficultyGrades() []float64 { return env.GradeDifficulties() }

// ScenarioSweepSpecs expands a base spec into one spec per named scenario.
// The base seed is kept identical across the expanded specs so the sweep
// compares scenario difficulty on paired worlds rather than mixing in seed
// variation; derive seeds up front (DeriveSeed) when independent worlds are
// wanted. Any Environment override on the base is cleared — the scenario
// names the family. Pass the result to NewCampaign.
func ScenarioSweepSpecs(base Spec, scenarios []string) []Spec {
	specs := make([]Spec, len(scenarios))
	for i, name := range scenarios {
		s := base
		s.Environment = ""
		s.Scenario = name
		specs[i] = s
	}
	return specs
}

// DifficultySweepSpecs expands a base spec into one spec per continuous
// difficulty value (each on the [-1, 1] scale), keeping the base seed
// identical across the expanded specs for paired comparisons. The base's
// scenario (or environment, or workload default) picks the family being
// graded; the scenario's own grade is superseded by each swept value, so
// sweeping from an "urban-dense" base grades the urban family across the
// requested difficulties (a swept 0 is the default grade, not dense).
// Pass the result to NewCampaign.
func DifficultySweepSpecs(base Spec, difficulties []float64) []Spec {
	if base.Scenario != "" {
		if s, ok := env.LookupScenario(base.Scenario); ok {
			base.Scenario = s.Family + "-default"
		}
	}
	specs := make([]Spec, len(difficulties))
	for i, d := range difficulties {
		s := base
		s.Difficulty = d
		specs[i] = s
	}
	return specs
}
