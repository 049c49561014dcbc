package search

import (
	"mavbench/internal/env"
	"mavbench/internal/geom"
)

// This file calibrates a knob vector's *effective* difficulty by probing the
// world it builds. Raw knob multipliers are not comparable across families —
// obstacle_density 2 turns the urban grid into a maze but barely dents the
// open farm — so a calibrated difficulty sits on the same [-1, +1] scale as
// the hand-graded presets: -1 ≡ the family's sparse anchor, +1 ≡ its dense
// anchor, measured by world obstruction rather than promised by the knobs.

// probeScale is the world scale calibration probes are built at: small enough
// to stay cheap, large enough that density structure survives discretization.
const probeScale = 0.4

// probeGrid is the obstruction lattice resolution per horizontal axis.
const probeGrid = 24

// probeLayers is the number of altitude layers probed (the band a MAV
// actually flies through).
const probeLayers = 4

// probeClearance is the clearance radius (meters) a lattice point must have
// to count as free — roughly the vehicle's safety bubble.
const probeClearance = 0.75

// Obstruction measures how blocked a family world is under the given knobs: a
// deterministic lattice probe returning the blocked fraction of flight-band
// sample points plus a small dynamic-load term (moving obstacles × speed).
// Equal inputs always return the exact same value; no RNG is consumed.
func Obstruction(family string, seed int64, k env.Knobs) (float64, error) {
	w, err := env.BuildFamilyWorld(family, seed, probeScale, k)
	if err != nil {
		return 0, err
	}
	b := w.Bounds
	size := b.Size()
	blocked, total := 0, 0
	for iz := 0; iz < probeLayers; iz++ {
		// Probe the lower flight band (up to ~40% of world height): that is
		// where buildings, walls, rubble and trees actually contest the path.
		z := b.Min.Z + size.Z*0.4*(float64(iz)+0.5)/float64(probeLayers)
		for iy := 0; iy < probeGrid; iy++ {
			y := b.Min.Y + size.Y*(float64(iy)+0.5)/float64(probeGrid)
			for ix := 0; ix < probeGrid; ix++ {
				x := b.Min.X + size.X*(float64(ix)+0.5)/float64(probeGrid)
				total++
				if w.Occupied(geom.V3(x, y, z), probeClearance) {
					blocked++
				}
			}
		}
	}
	obstruction := float64(blocked) / float64(total)
	// Dynamic load: moving obstacles contest the path even where the static
	// lattice is free. Normalize per 10 obstacle·m/s so a handful of urban
	// vehicles lands in the same order of magnitude as a few percent of
	// static obstruction.
	dyn := 0.0
	for _, o := range w.Obstacles() {
		if o.IsDynamic() {
			dyn += o.Speed
		}
	}
	return obstruction + dyn/10*0.01, nil
}

// Calibrator normalizes obstruction measurements of one family against its
// graded sparse/dense anchors, so synthesized difficulties are comparable
// across families.
type Calibrator struct {
	family         string
	seed           int64
	sparse, dense  float64
	degenerateSpan bool
}

// NewCalibrator probes the family's sparse and dense anchors at the given
// generator seed.
func NewCalibrator(family string, seed int64) (*Calibrator, error) {
	sparse, err := Obstruction(family, seed, env.GradeKnobs(env.MinDifficulty))
	if err != nil {
		return nil, err
	}
	dense, err := Obstruction(family, seed, env.GradeKnobs(env.MaxDifficulty))
	if err != nil {
		return nil, err
	}
	c := &Calibrator{family: family, seed: seed, sparse: sparse, dense: dense}
	// A family whose grading has no measurable effect ("empty") cannot be
	// calibrated; report the default difficulty for every knob set.
	c.degenerateSpan = dense-sparse < 1e-6
	return c, nil
}

// Difficulty maps a knob set to its calibrated difficulty: the obstruction of
// the world it builds, linearly normalized so the family's sparse anchor is
// -1 and its dense anchor +1. Values beyond the anchors extrapolate and are
// clamped to [-2, +2] — "twice as far past dense as dense is past default" is
// as much resolution as the probe supports.
func (c *Calibrator) Difficulty(k env.Knobs) (float64, error) {
	if c.degenerateSpan {
		return 0, nil
	}
	m, err := Obstruction(c.family, c.seed, k)
	if err != nil {
		return 0, err
	}
	d := -1 + 2*(m-c.sparse)/(c.dense-c.sparse)
	if d < -2 {
		d = -2
	}
	if d > 2 {
		d = 2
	}
	return Quantize(d), nil
}
