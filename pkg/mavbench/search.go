package mavbench

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mavbench/internal/env"
	"mavbench/internal/search"
)

// This file is the public surface of the adversarial scenario-search engine
// (internal/search): synthesize difficulty-knob vectors, score each candidate
// by running real missions through the campaign engine, and walk the knob
// space toward the settings that maximize collision rate or quality-of-flight
// drop at a chosen compute operating point — the paper's compute↔safety
// tradeoff turned into a scenario-discovery loop.
//
// The search is deterministic end to end: candidate sampling is seeded, world
// seeds derive via DeriveSeed, and candidate batches run as ordinary
// campaigns (so they inherit the result store, world cache and — through a
// custom runner — fleet sharding). The same request always produces a
// byte-identical Frontier.

// SearchObjective names what the adversarial search maximizes.
type SearchObjective string

const (
	// SearchCollisions maximizes the collision rate (collisions per
	// simulated mission minute) at the chosen operating point.
	SearchCollisions SearchObjective = "collisions"
	// SearchQoF maximizes quality-of-flight degradation: a composite of
	// collision rate, mission-failure fraction and velocity drop relative to
	// the default-difficulty baseline at the same operating point.
	SearchQoF SearchObjective = "qof"
)

// SearchObjectives returns the valid objective names.
func SearchObjectives() []SearchObjective { return []SearchObjective{SearchCollisions, SearchQoF} }

// SearchRequest parameterizes one adversarial search. The zero value of every
// field means "default"; Validate reports what the defaults resolve to.
type SearchRequest struct {
	// Workload is the benchmark application whose missions score candidates.
	Workload string `json:"workload"`
	// Family is the environment family whose knob space is searched
	// (empty = the workload's home family).
	Family string `json:"family,omitempty"`
	// Cores and FreqGHz fix the compute operating point the search probes
	// (0 = the benchmark default of 4 cores @ 2.2 GHz).
	Cores   int     `json:"cores,omitempty"`
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// Seed drives candidate sampling and (via DeriveSeed) every mission
	// seed; the same seed and budget reproduce the frontier byte-for-byte.
	Seed int64 `json:"seed,omitempty"`
	// Objective selects what the search maximizes (default collisions).
	Objective SearchObjective `json:"objective,omitempty"`

	// Generations is the number of refinement generations after the uniform
	// random init generation (default 3).
	Generations int `json:"generations,omitempty"`
	// Population is the number of candidates per generation (default 8).
	Population int `json:"population,omitempty"`
	// Elites is how many top candidates refit the sampler per generation
	// (default max(2, Population/4)).
	Elites int `json:"elites,omitempty"`
	// Repeats is the number of missions per candidate; seeds are derived per
	// repeat and shared across candidates so comparisons are paired
	// (default 2).
	Repeats int `json:"repeats,omitempty"`

	// WorldScale and MaxMissionTimeS size each scoring mission
	// (default 0.3 / 300 s — the unit-test scale; raise for paper-sized
	// frontiers).
	WorldScale      float64 `json:"world_scale,omitempty"`
	MaxMissionTimeS float64 `json:"max_mission_time_s,omitempty"`
	// Workers bounds the default local runner's campaign pool (<= 0 = one
	// per CPU). Ignored when a custom runner is installed.
	Workers int `json:"workers,omitempty"`
}

// homeFamilies maps each benchmark workload to the environment family its
// difficulty tiers grade — the family an unqualified search explores.
var homeFamilies = map[string]string{
	"scanning":           "farm",
	"package_delivery":   "urban",
	"mapping_3d":         "disaster",
	"search_and_rescue":  "disaster",
	"aerial_photography": "park",
}

// withDefaults resolves every zero field.
func (r SearchRequest) withDefaults() SearchRequest {
	if r.Family == "" {
		r.Family = homeFamilies[r.Workload]
	}
	if r.Cores == 0 {
		r.Cores = 4
	}
	if r.FreqGHz == 0 {
		r.FreqGHz = 2.2
	}
	if r.Objective == "" {
		r.Objective = SearchCollisions
	}
	if r.Generations <= 0 {
		r.Generations = 3
	}
	if r.Population <= 0 {
		r.Population = 8
	}
	if r.Elites <= 0 {
		r.Elites = r.Population / 4
		if r.Elites < 2 {
			r.Elites = 2
		}
	}
	if r.Repeats <= 0 {
		r.Repeats = 2
	}
	if r.WorldScale == 0 {
		r.WorldScale = 0.3
	}
	if r.MaxMissionTimeS == 0 {
		r.MaxMissionTimeS = 300
	}
	return r
}

// TotalRuns returns how many missions the request will simulate: one batch
// per generation (including the random init) plus the baseline runs.
func (r SearchRequest) TotalRuns() int {
	r = r.withDefaults()
	return (r.Generations+1)*r.Population*r.Repeats + r.Repeats
}

// Validate checks the request and the spec every candidate will expand to.
func (r SearchRequest) Validate() error {
	rr := r.withDefaults()
	if rr.Family == "" {
		return fmt.Errorf("mavbench: search has no family and workload %q has no home family (set family explicitly; valid: %v)",
			rr.Workload, Environments())
	}
	ok := false
	for _, f := range ScenarioFamilies() {
		if f == rr.Family {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("mavbench: unknown search family %q (valid: %v)", rr.Family, ScenarioFamilies())
	}
	switch rr.Objective {
	case SearchCollisions, SearchQoF:
	default:
		return fmt.Errorf("mavbench: unknown search objective %q (valid: %v)", rr.Objective, SearchObjectives())
	}
	if rr.Elites > rr.Population {
		return fmt.Errorf("mavbench: search elites = %d exceeds population = %d", rr.Elites, rr.Population)
	}
	// A candidate spec carries every remaining knob; validating one validates
	// them all (candidates differ only in ScenarioKnobs, which the engine
	// bounds itself).
	probe := rr.candidateSpec(env.DefaultKnobs(), 0)
	return probe.Validate()
}

// candidateSpec expands one (knob vector, repeat) pair into a run spec. All
// candidates share the per-repeat seeds, so scores compare paired missions.
func (r SearchRequest) candidateSpec(k env.Knobs, repeat int) Spec {
	return Spec{
		Workload:        r.Workload,
		Cores:           r.Cores,
		FreqGHz:         r.FreqGHz,
		Seed:            DeriveSeed(r.Seed, r.Workload, r.Cores, r.FreqGHz, repeat),
		Localizer:       "ground_truth",
		Scenario:        r.Family + "-default",
		ScenarioKnobs:   &k,
		WorldScale:      r.WorldScale,
		MaxMissionTimeS: r.MaxMissionTimeS,
	}
}

// FrontierCandidate is one scored knob vector.
type FrontierCandidate struct {
	// Knobs is the candidate's difficulty knob vector (relative to the
	// family defaults; pass via WithScenarioKnobs to reproduce its world).
	Knobs ScenarioKnobs `json:"knobs"`
	// Score is the objective value (higher = more adversarial).
	Score float64 `json:"score"`
	// CollisionRate is collisions per simulated mission minute, aggregated
	// over the candidate's repeats.
	CollisionRate float64 `json:"collision_rate"`
	// SuccessRate is the fraction of the candidate's missions that
	// succeeded.
	SuccessRate float64 `json:"success_rate"`
	// AvgSpeedMPS averages mission velocity over the repeats.
	AvgSpeedMPS float64 `json:"avg_speed_mps"`
	// CalibratedDifficulty places the candidate's world on the family's
	// graded scale (-1 ≡ sparse anchor, +1 ≡ dense anchor, extrapolating
	// beyond), measured by the calibration probe rather than promised by
	// the knobs.
	CalibratedDifficulty float64 `json:"calibrated_difficulty"`
}

// FrontierGeneration summarizes one search generation. Index 0 is the
// uniform random initialization — the baseline an adversarial search must
// improve on.
type FrontierGeneration struct {
	Index     int               `json:"index"`
	Best      FrontierCandidate `json:"best"`
	BestScore float64           `json:"best_score"`
	MeanScore float64           `json:"mean_score"`
}

// SearchBudget echoes the resolved search budget.
type SearchBudget struct {
	Generations int `json:"generations"`
	Population  int `json:"population"`
	Elites      int `json:"elites"`
	Repeats     int `json:"repeats"`
}

// Frontier is the result of one adversarial search: the most adversarial
// knob vector found, the per-generation trajectory that led there, and the
// default-difficulty baseline for reference. It is plain data —
// json.MarshalIndent of a Frontier is byte-stable across runs of the same
// request.
type Frontier struct {
	Workload  string          `json:"workload"`
	Family    string          `json:"family"`
	Cores     int             `json:"cores"`
	FreqGHz   float64         `json:"freq_ghz"`
	Objective SearchObjective `json:"objective"`
	Seed      int64           `json:"seed"`
	Budget    SearchBudget    `json:"budget"`
	// Baseline scores the family's default-difficulty world under the same
	// seeds and operating point.
	Baseline FrontierCandidate `json:"baseline"`
	// Best is the highest-scoring candidate across all generations.
	Best        FrontierCandidate    `json:"best"`
	Generations []FrontierGeneration `json:"generations"`
	// TotalRuns counts the missions simulated (candidates × repeats plus
	// the baseline).
	TotalRuns int `json:"total_runs"`
}

// SearchRunner executes a batch of specs and returns one result per spec in
// submission order. It is how the search plugs into different execution
// substrates: the default runner is a local Campaign (result store and world
// cache included); mavbenchd installs a fleet-sharded runner; the CLI's
// -remote mode installs an HTTP client runner.
type SearchRunner func(ctx context.Context, specs []Spec) ([]Result, error)

// SearchOption configures SearchFrontier beyond the request.
type SearchOption func(*searchExec)

// WithSearchRunner substitutes the batch executor candidate generations run
// on (default: a local Campaign honoring SearchRequest.Workers).
func WithSearchRunner(run SearchRunner) SearchOption {
	return func(e *searchExec) { e.run = run }
}

// WithSearchStore installs a content-addressed result store on the default
// local runner (no effect when WithSearchRunner is used): candidates
// re-sampled across generations — and searches resumed with the same seed —
// are served from the store instead of re-simulating.
func WithSearchStore(store ResultStore) SearchOption {
	return func(e *searchExec) { e.store = store }
}

type searchExec struct {
	run   SearchRunner
	store ResultStore
}

// candMetrics aggregates one candidate's missions.
type candMetrics struct {
	score         float64
	collisionRate float64
	successRate   float64
	avgSpeed      float64
}

// SearchFrontier runs the adversarial scenario search described by req and
// returns the found frontier. Results are deterministic per (request,
// engine version): the CI nightly pins byte-identical frontiers across runs.
func SearchFrontier(ctx context.Context, req SearchRequest, opts ...SearchOption) (*Frontier, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	r := req.withDefaults()
	exec := &searchExec{}
	for _, opt := range opts {
		opt(exec)
	}
	if exec.run == nil {
		workers, store := r.Workers, exec.store
		exec.run = func(ctx context.Context, specs []Spec) ([]Result, error) {
			c := NewCampaign(specs...).SetWorkers(workers)
			if store != nil {
				c.SetStore(store)
			}
			return c.Collect(ctx)
		}
	}

	cal, err := search.NewCalibrator(r.Family, r.Seed)
	if err != nil {
		return nil, err
	}

	// evaluate scores a batch of knob vectors: one campaign per generation,
	// Repeats missions per candidate, fixed aggregation order.
	metricsByKey := map[string]candMetrics{}
	baseline := candMetrics{}
	evaluate := func(ctx context.Context, batch [][]float64) ([]float64, error) {
		specs := make([]Spec, 0, len(batch)*r.Repeats)
		for _, v := range batch {
			k := search.KnobsFromVector(v)
			for rep := 0; rep < r.Repeats; rep++ {
				specs = append(specs, r.candidateSpec(k, rep))
			}
		}
		results, err := exec.run(ctx, specs)
		if err != nil {
			return nil, fmt.Errorf("mavbench: search candidate batch failed: %w", err)
		}
		if len(results) != len(specs) {
			return nil, fmt.Errorf("mavbench: search runner returned %d results for %d specs", len(results), len(specs))
		}
		scores := make([]float64, len(batch))
		for i := range batch {
			m, err := aggregate(results[i*r.Repeats : (i+1)*r.Repeats])
			if err != nil {
				return nil, err
			}
			m.score = m.collisionRate
			if r.Objective == SearchQoF {
				m.score = qofDrop(m, baseline)
			}
			scores[i] = m.score
			metricsByKey[vecKey(batch[i])] = m
		}
		return scores, nil
	}

	// Baseline first: the default-difficulty world under the same seeds. The
	// QoF objective is defined relative to it, and the frontier reports it
	// either way.
	baseSpecs := make([]Spec, r.Repeats)
	for rep := 0; rep < r.Repeats; rep++ {
		baseSpecs[rep] = r.candidateSpec(env.DefaultKnobs(), rep)
	}
	baseResults, err := exec.run(ctx, baseSpecs)
	if err != nil {
		return nil, fmt.Errorf("mavbench: search baseline failed: %w", err)
	}
	baseline, err = aggregate(baseResults)
	if err != nil {
		return nil, err
	}
	baseline.score = baseline.collisionRate
	if r.Objective == SearchQoF {
		baseline.score = qofDrop(baseline, baseline)
	}

	opt, err := search.Maximize(ctx, search.Config{
		Space:       search.DefaultSpace(),
		Population:  r.Population,
		Elites:      r.Elites,
		Generations: r.Generations,
		Seed:        r.Seed,
	}, evaluate)
	if err != nil {
		return nil, err
	}

	f := &Frontier{
		Workload:  r.Workload,
		Family:    r.Family,
		Cores:     r.Cores,
		FreqGHz:   r.FreqGHz,
		Objective: r.Objective,
		Seed:      r.Seed,
		Budget: SearchBudget{
			Generations: r.Generations,
			Population:  r.Population,
			Elites:      r.Elites,
			Repeats:     r.Repeats,
		},
		TotalRuns: opt.Evaluations*r.Repeats + r.Repeats,
	}
	f.Baseline, err = candidate(search.VectorFromKnobs(env.DefaultKnobs()), baseline, cal)
	if err != nil {
		return nil, err
	}
	f.Best, err = candidate(opt.Best.Vector, metricsByKey[vecKey(opt.Best.Vector)], cal)
	if err != nil {
		return nil, err
	}
	for _, g := range opt.Generations {
		best, err := candidate(g.Best.Vector, metricsByKey[vecKey(g.Best.Vector)], cal)
		if err != nil {
			return nil, err
		}
		f.Generations = append(f.Generations, FrontierGeneration{
			Index:     g.Index,
			Best:      best,
			BestScore: g.Best.Score,
			MeanScore: g.MeanScore,
		})
	}
	return f, nil
}

// aggregate folds one candidate's mission results into metrics, failing the
// search loudly if any run errored (an erroring candidate would silently
// score 0 and corrupt the frontier).
func aggregate(results []Result) (candMetrics, error) {
	var collisions, minutes, speed float64
	successes := 0
	for _, res := range results {
		if err := res.Err(); err != nil {
			return candMetrics{}, fmt.Errorf("mavbench: search run %s failed: %w", res.SpecHash, err)
		}
		collisions += res.Report.Counters["collisions"]
		minutes += res.Report.MissionTimeS / 60
		speed += res.Report.AverageSpeed
		if res.Report.Success {
			successes++
		}
	}
	m := candMetrics{}
	if minutes > 0 {
		m.collisionRate = collisions / minutes
	}
	if n := len(results); n > 0 {
		m.successRate = float64(successes) / float64(n)
		m.avgSpeed = speed / float64(n)
	}
	return m, nil
}

// qofDrop is the composite quality-of-flight degradation objective: collision
// rate, plus 2× the failed-mission fraction, plus the relative velocity drop
// against the default-difficulty baseline.
func qofDrop(m, baseline candMetrics) float64 {
	score := m.collisionRate + 2*(1-m.successRate)
	if baseline.avgSpeed > 0 && m.avgSpeed < baseline.avgSpeed {
		score += (baseline.avgSpeed - m.avgSpeed) / baseline.avgSpeed
	}
	return score
}

// candidate assembles the public form of one scored vector, attaching its
// calibrated difficulty.
func candidate(v []float64, m candMetrics, cal *search.Calibrator) (FrontierCandidate, error) {
	k := search.KnobsFromVector(v)
	d, err := cal.Difficulty(k)
	if err != nil {
		return FrontierCandidate{}, err
	}
	return FrontierCandidate{
		Knobs:                k,
		Score:                m.score,
		CollisionRate:        m.collisionRate,
		SuccessRate:          m.successRate,
		AvgSpeedMPS:          m.avgSpeed,
		CalibratedDifficulty: d,
	}, nil
}

// vecKey is the map key of a quantized candidate vector.
func vecKey(v []float64) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	return b.String()
}
