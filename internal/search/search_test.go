package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mavbench/internal/env"
)

func TestQuantize(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.12349, 0.123},
		{0.12351, 0.124},
		{1.888, 1.888}, // bit-identical to the literal, not 1 ulp away
		{1.9999, 2.0},
		{-0.0004, 0},
		{2.5, 2.5},
	}
	for _, c := range cases {
		if got := Quantize(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := (Space{}).Validate(); err == nil {
		t.Error("empty space validated")
	}
	if err := (Space{Dims: []Dimension{{Min: 0, Max: 1}}}).Validate(); err == nil {
		t.Error("unnamed dimension validated")
	}
	if err := (Space{Dims: []Dimension{{Name: "x", Min: 1, Max: 1}}}).Validate(); err == nil {
		t.Error("empty range validated")
	}
	if err := DefaultSpace().Validate(); err != nil {
		t.Errorf("DefaultSpace invalid: %v", err)
	}
}

func TestSpaceClamp(t *testing.T) {
	s := DefaultSpace()
	in := []float64{-5, 99, 1.23456, 0.4}
	got := s.Clamp(in)
	want := []float64{0.3, 2.0, 1.235, 0.4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Clamp dim %d = %v, want %v", i, got[i], want[i])
		}
	}
	if in[0] != -5 {
		t.Error("Clamp modified its input")
	}
}

func TestKnobsVectorRoundTrip(t *testing.T) {
	v := []float64{1.5, 0.8, 2.25, 1.1}
	k := KnobsFromVector(v)
	if k.ExtentScale != 1 {
		t.Errorf("ExtentScale = %v, want pinned 1", k.ExtentScale)
	}
	if k.ObstacleDensity != 1.5 || k.ClutterScale != 0.8 || k.DynamicCount != 2.25 || k.DynamicSpeed != 1.1 {
		t.Errorf("KnobsFromVector mismatch: %+v", k)
	}
	back := VectorFromKnobs(k)
	if !reflect.DeepEqual(back, v) {
		t.Errorf("VectorFromKnobs = %v, want %v", back, v)
	}
	// A short vector leaves the remaining knobs at their neutral 1.
	k2 := KnobsFromVector([]float64{2})
	if k2.ObstacleDensity != 2 || k2.ClutterScale != 1 || k2.DynamicSpeed != 1 {
		t.Errorf("short vector knobs = %+v", k2)
	}
}

// quadraticObjective is a closed-form objective with a known unique optimum:
// the negated squared distance to target. No simulation involved.
func quadraticObjective(target []float64) Objective {
	return func(_ context.Context, batch [][]float64) ([]float64, error) {
		scores := make([]float64, len(batch))
		for i, v := range batch {
			s := 0.0
			for d := range v {
				diff := v[d] - target[d]
				s -= diff * diff
			}
			scores[i] = s
		}
		return scores, nil
	}
}

func TestMaximizeConvergesOnQuadratic(t *testing.T) {
	space := DefaultSpace()
	target := []float64{1.8, 1.2, 2.4, 0.9} // interior optimum
	cfg := Config{Space: space, Population: 16, Elites: 4, Generations: 6, Seed: 7}
	res, err := Maximize(context.Background(), cfg, quadraticObjective(target))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Evaluations, (cfg.Generations+1)*cfg.Population; got != want {
		t.Errorf("Evaluations = %d, want %d", got, want)
	}
	if got, want := len(res.Generations), cfg.Generations+1; got != want {
		t.Fatalf("len(Generations) = %d, want %d", got, want)
	}
	for d := range target {
		if math.Abs(res.Best.Vector[d]-target[d]) > 0.25 {
			t.Errorf("dim %d: best %v too far from optimum %v", d, res.Best.Vector[d], target[d])
		}
	}
	// The refinement generations must improve on the uniform random init, and
	// the global best must dominate every generation.
	last := res.Generations[len(res.Generations)-1]
	if last.Best.Score <= res.Generations[0].Best.Score {
		t.Errorf("no improvement over random init: gen0 best %v, final best %v",
			res.Generations[0].Best.Score, last.Best.Score)
	}
	if last.MeanScore <= res.Generations[0].MeanScore {
		t.Errorf("population did not concentrate: gen0 mean %v, final mean %v",
			res.Generations[0].MeanScore, last.MeanScore)
	}
	for _, g := range res.Generations {
		if g.Best.Score > res.Best.Score {
			t.Errorf("generation %d best %v exceeds global best %v", g.Index, g.Best.Score, res.Best.Score)
		}
	}
}

func TestMaximizeDeterministic(t *testing.T) {
	cfg := Config{Space: DefaultSpace(), Population: 8, Generations: 3, Seed: 1234}
	target := []float64{0.7, 1.9, 0.5, 2.2}
	run := func() []byte {
		res, err := Maximize(context.Background(), cfg, quadraticObjective(target))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("same seed and budget produced different results")
	}
	cfg.Seed = 1235
	if string(run()) == string(a) {
		t.Fatal("different seed produced identical results")
	}
}

func TestMaximizeCandidatesStayInSpace(t *testing.T) {
	space := DefaultSpace()
	seen := 0
	obj := func(_ context.Context, batch [][]float64) ([]float64, error) {
		scores := make([]float64, len(batch))
		for i, v := range batch {
			seen++
			for d, x := range v {
				if x < space.Dims[d].Min || x > space.Dims[d].Max {
					return nil, fmt.Errorf("candidate %v outside dim %d [%g, %g]",
						x, d, space.Dims[d].Min, space.Dims[d].Max)
				}
				if math.Abs(x-Quantize(x)) > 1e-12 {
					return nil, fmt.Errorf("candidate %v not quantized", x)
				}
			}
			// Push hard toward a corner so later generations sample (and must
			// clamp) far outside the box.
			scores[i] = v[0]
		}
		return scores, nil
	}
	res, err := Maximize(context.Background(), Config{Space: space, Population: 10, Generations: 4, Seed: 99}, obj)
	if err != nil {
		t.Fatal(err)
	}
	if seen != res.Evaluations {
		t.Errorf("objective saw %d candidates, Evaluations reports %d", seen, res.Evaluations)
	}
}

func TestMaximizeErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Maximize(ctx, Config{Space: DefaultSpace()}, nil); err == nil {
		t.Error("nil objective accepted")
	}
	if _, err := Maximize(ctx, Config{}, quadraticObjective([]float64{0})); err == nil {
		t.Error("invalid space accepted")
	}
	boom := fmt.Errorf("boom")
	if _, err := Maximize(ctx, Config{Space: DefaultSpace(), Seed: 1},
		func(context.Context, [][]float64) ([]float64, error) { return nil, boom }); err == nil {
		t.Error("objective error not propagated")
	}
	if _, err := Maximize(ctx, Config{Space: DefaultSpace(), Seed: 1},
		func(_ context.Context, b [][]float64) ([]float64, error) { return make([]float64, len(b)-1), nil }); err == nil {
		t.Error("score/batch length mismatch accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Maximize(canceled, Config{Space: DefaultSpace(), Seed: 1}, quadraticObjective([]float64{1, 1, 1, 1})); err == nil {
		t.Error("canceled context not observed")
	}
}

func TestObstructionDeterministicAndMonotone(t *testing.T) {
	sparse, err := Obstruction("urban", 42, env.GradeKnobs(env.MinDifficulty))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Obstruction("urban", 42, env.GradeKnobs(env.MaxDifficulty))
	if err != nil {
		t.Fatal(err)
	}
	if !(dense > sparse) {
		t.Errorf("dense obstruction %v not above sparse %v", dense, sparse)
	}
	again, err := Obstruction("urban", 42, env.GradeKnobs(env.MinDifficulty))
	if err != nil {
		t.Fatal(err)
	}
	if again != sparse {
		t.Errorf("Obstruction not deterministic: %v then %v", sparse, again)
	}
	if _, err := Obstruction("no_such_family", 1, env.DefaultKnobs()); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestCalibratorAnchors(t *testing.T) {
	cal, err := NewCalibrator("urban", 42)
	if err != nil {
		t.Fatal(err)
	}
	dSparse, err := cal.Difficulty(env.GradeKnobs(env.MinDifficulty))
	if err != nil {
		t.Fatal(err)
	}
	dDense, err := cal.Difficulty(env.GradeKnobs(env.MaxDifficulty))
	if err != nil {
		t.Fatal(err)
	}
	if dSparse != -1 || dDense != 1 {
		t.Errorf("anchors map to (%v, %v), want (-1, +1)", dSparse, dDense)
	}
	dMid, err := cal.Difficulty(env.GradeKnobs(0))
	if err != nil {
		t.Fatal(err)
	}
	if dMid <= -1 || dMid >= 1 {
		t.Errorf("default grade difficulty %v outside (-1, 1)", dMid)
	}
}

func TestCalibratorDegenerateFamily(t *testing.T) {
	cal, err := NewCalibrator("empty", 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cal.Difficulty(env.GradeKnobs(env.MaxDifficulty))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("degenerate family difficulty = %v, want 0", d)
	}
}
