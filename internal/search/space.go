// Package search is the adversarial scenario-search engine: a constrained
// space of difficulty-knob vectors, a calibration pass that keeps a knob
// vector's "difficulty" comparable across environment families, and a
// deterministic cross-entropy optimizer that hunts the knob space for
// the settings that maximize an objective (collision rate, quality-of-flight
// drop) at a chosen compute operating point. The axis it searches extends
// the environment sensitivity the paper studies with hand-picked maps
// (MAVBench, Boroujerdian et al., MICRO 2018, Section VI) into an
// automatically discovered difficulty frontier.
//
// Everything here is deterministic by construction: all randomness flows from
// explicit int64 seeds through math/rand sources, candidate vectors are
// quantized before evaluation, and reductions run in a fixed order — the same
// seed and budget always produce a byte-identical frontier. The package deliberately knows nothing about
// campaigns or specs; pkg/mavbench supplies the simulation-backed objective
// and owns the public search API.
package search

import (
	"fmt"
	"strconv"

	"mavbench/internal/env"
)

// Dimension is one axis of the knob search space.
type Dimension struct {
	// Name is the difficulty knob the axis drives ("obstacle_density", ...).
	Name string `json:"name"`
	// Min and Max bound sampling; candidates are clamped into [Min, Max].
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Space is the box-constrained knob search space.
type Space struct {
	Dims []Dimension `json:"dims"`
}

// quantum is the sampling granularity of every dimension. Candidates are
// quantized to it before evaluation, so a found vector ships as a short,
// exactly-reproducible preset rather than a 17-digit float.
const quantum = 1e-3

// Quantize snaps v to the sampling granularity by round-tripping through its
// three-decimal form. The string round-trip matters: it makes the result
// bit-identical to the Go literal (and JSON number) with the same decimals,
// so a found vector pasted into the scenario catalog reproduces the search's
// worlds exactly. Round(v/quantum)*quantum would land 1 ulp away from the
// literal for many values (for example 1.888).
func Quantize(v float64) float64 {
	out, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
	if err != nil {
		return v
	}
	return out
}

// Validate rejects empty and inverted spaces.
func (s Space) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("search: space has no dimensions")
	}
	for _, d := range s.Dims {
		if d.Name == "" {
			return fmt.Errorf("search: space has an unnamed dimension")
		}
		if !(d.Min < d.Max) {
			return fmt.Errorf("search: dimension %s has empty range [%g, %g]", d.Name, d.Min, d.Max)
		}
	}
	return nil
}

// Clamp returns v with every coordinate clamped into its dimension's range
// and quantized. The input is not modified.
func (s Space) Clamp(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		d := s.Dims[i]
		if x < d.Min {
			x = d.Min
		}
		if x > d.Max {
			x = d.Max
		}
		out[i] = Quantize(x)
	}
	return out
}

// Center returns the midpoint of the space.
func (s Space) Center() []float64 {
	out := make([]float64, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = Quantize((d.Min + d.Max) / 2)
	}
	return out
}

// The knob-vector layout: the four graded difficulty multipliers the search
// explores, in fixed order. ExtentScale is deliberately excluded — growing
// the world mostly stretches mission time without changing its character, and
// the calibration anchors assume comparable extents.
const (
	dimObstacleDensity = iota
	dimClutterScale
	dimDynamicCount
	dimDynamicSpeed
	numKnobDims
)

// DefaultSpace returns the knob search space the scenario search explores.
// Lower bounds stay strictly positive: a zero knob means "unset" to the
// scenario-resolution layers (env.Knobs.OverrideWith), and the engine's
// validation caps every multiplier at 8.
func DefaultSpace() Space {
	return Space{Dims: []Dimension{
		{Name: "obstacle_density", Min: 0.3, Max: 2.4},
		{Name: "clutter_scale", Min: 0.5, Max: 2.0},
		{Name: "dynamic_count", Min: 0.25, Max: 3.0},
		{Name: "dynamic_speed", Min: 0.4, Max: 2.5},
	}}
}

// KnobsFromVector maps a DefaultSpace vector to the difficulty knob set.
// ExtentScale is pinned to 1 so the full knob vector is explicit (every field
// overrides its graded value).
func KnobsFromVector(v []float64) env.Knobs {
	k := env.Knobs{ObstacleDensity: 1, ClutterScale: 1, DynamicCount: 1, DynamicSpeed: 1, ExtentScale: 1}
	if len(v) > dimObstacleDensity {
		k.ObstacleDensity = v[dimObstacleDensity]
	}
	if len(v) > dimClutterScale {
		k.ClutterScale = v[dimClutterScale]
	}
	if len(v) > dimDynamicCount {
		k.DynamicCount = v[dimDynamicCount]
	}
	if len(v) > dimDynamicSpeed {
		k.DynamicSpeed = v[dimDynamicSpeed]
	}
	return k
}

// VectorFromKnobs is the inverse of KnobsFromVector (ExtentScale is dropped).
func VectorFromKnobs(k env.Knobs) []float64 {
	return []float64{k.ObstacleDensity, k.ClutterScale, k.DynamicCount, k.DynamicSpeed}
}
