package env

import (
	"math"
	"math/rand"
	"testing"

	"mavbench/internal/geom"
)

// checkNearest compares NearestObstacleWithin(p, r) with the scan: the same
// obstacle and a bit-equal distance when the scan's nearest lies within r,
// +Inf and nil otherwise. It reports whether the grid answered the query.
func checkNearest(t *testing.T, w *World, p geom.Vec3, r float64) (indexed bool) {
	t.Helper()
	refD, refO := nearestByScan(w, p)
	d, o := w.NearestObstacleWithin(p, r)
	if refD <= r {
		if o != refO || math.Float64bits(d) != math.Float64bits(refD) {
			t.Fatalf("%s: NearestObstacleWithin(%v, %v) = %v %v, scan = %v %v", w.Name, p, r, d, o, refD, refO)
		}
	} else if o != nil || !math.IsInf(d, 1) {
		t.Fatalf("%s: NearestObstacleWithin(%v, %v) = %v %v, want +Inf and nil (scan nearest %v at %v)",
			w.Name, p, r, d, o, refO, refD)
	}
	_, _, indexed = w.idx.nearestWithin(p, r+cubeSlack)
	return indexed
}

// queryPoint draws a point inside the bounds, outside them, inside an
// obstacle, or just off an obstacle's corner.
func queryPoint(rng *rand.Rand, w *World, i int) geom.Vec3 {
	b := w.Bounds
	size := b.Size()
	obs := w.Obstacles()
	if len(obs) == 0 {
		i = 0
	}
	switch i % 4 {
	case 0:
		return w.SamplePoint()
	case 1: // the bounds widened by half their size on every side
		return geom.V3(
			b.Min.X+(rng.Float64()*2-0.5)*size.X,
			b.Min.Y+(rng.Float64()*2-0.5)*size.Y,
			b.Min.Z+(rng.Float64()*2-0.5)*size.Z,
		)
	case 2:
		return obs[rng.Intn(len(obs))].Center()
	default:
		o := obs[rng.Intn(len(obs))]
		off := geom.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5)
		return o.Box.Max.Add(off)
	}
}

// TestNearestObstacleWithinMatchesScan pins the indexed query's exactness
// against the scan over every scenario family at grades -1, 0 and +1 and
// three seeds, with dynamic obstacles stepped between query rounds, radii
// from the collision check's 0.3 m to beyond the world, and points outside
// the bounds and inside obstacles.
func TestNearestObstacleWithinMatchesScan(t *testing.T) {
	total, indexed := 0, 0
	for _, family := range ScenarioFamilies() {
		for _, grade := range []float64{-1, 0, 1} {
			for seed := int64(1); seed <= 3; seed++ {
				scale := []float64{0.35, 0.7, 1}[seed-1]
				w, err := BuildFamilyWorld(family, seed, scale, GradeKnobs(grade))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				radii := []float64{0.3, 0.6, 1.5, 4, 8, 20, 2 * w.Bounds.Size().Norm(), math.Inf(1)}
				for round := 0; round < 4; round++ {
					w.Step(1.7)
					for i := 0; i < 100; i++ {
						p := queryPoint(rng, w, i)
						for _, r := range radii {
							total++
							if checkNearest(t, w, p, r) {
								indexed++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d queries, %d answered by the grid", total, indexed)
	// The comparison means little if the grid never answered.
	if indexed < total/4 {
		t.Errorf("grid answered %d of %d queries, want at least a quarter", indexed, total)
	}
}

// TestNearestObstacleWithinTies checks that exact ties go to the obstacle
// earliest in Obstacles() order, whatever cell the grid meets first and
// whether the tied obstacles are static or moving.
func TestNearestObstacleWithinTies(t *testing.T) {
	w := New("ties", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30)), 1)
	// Enough static fillers that a small query square covers fewer cells.
	for i := 0; i < 48; i++ {
		c := geom.V3(-45+6*float64(i%16), []float64{-45, -40, 45}[i/16], 5)
		w.AddObstacle(KindStructure, geom.BoxAt(c, geom.V3(2, 2, 10)), "filler")
	}
	size := geom.V3(2, 2, 2)
	// Static against static: the first added lies in the later cell.
	q1 := geom.V3(0, 0, 5)
	first := w.AddObstacle(KindStructure, geom.BoxAt(q1.Add(geom.V3(3, 0, 0)), size), "static-east")
	w.AddObstacle(KindStructure, geom.BoxAt(q1.Add(geom.V3(-3, 0, 0)), size), "static-west")
	// Moving before static, and static before moving.
	q2 := geom.V3(0, 20, 5)
	moving := w.AddDynamicObstacle(geom.BoxAt(q2.Add(geom.V3(0, 3, 0)), size), q2, q2, 1, "moving-north")
	w.AddObstacle(KindStructure, geom.BoxAt(q2.Add(geom.V3(0, -3, 0)), size), "static-south")
	q3 := geom.V3(20, 0, 5)
	static := w.AddObstacle(KindStructure, geom.BoxAt(q3.Add(geom.V3(3, 0, 0)), size), "static-east")
	w.AddDynamicObstacle(geom.BoxAt(q3.Add(geom.V3(-3, 0, 0)), size), q3, q3, 1, "moving-west")

	for _, tc := range []struct {
		q    geom.Vec3
		want *Obstacle
	}{{q1, first}, {q2, moving}, {q3, static}} {
		for _, r := range []float64{2, 2.5} {
			if !checkNearest(t, w, tc.q, r) {
				t.Errorf("query at %v within %v m did not use the grid", tc.q, r)
			}
			if d, o := w.NearestObstacleWithin(tc.q, r); o != tc.want || d != 2 {
				t.Errorf("query at %v within %v m = %+v at %v, want %s at 2", tc.q, r, o, d, tc.want.Label)
			}
		}
	}
}

var nearestSink *Obstacle

// BenchmarkNearestObstacleWithin times one query per scenario family at the
// physics collision check's radius (0.75 × the 0.4 m airframe radius) and at
// the GPS obstruction radius (8 m), from free points of the default world at
// the benchmark's 0.35 world scale.
func BenchmarkNearestObstacleWithin(b *testing.B) {
	for _, family := range ScenarioFamilies() {
		w, err := BuildFamilyWorld(family, 1, 0.35, DefaultKnobs())
		if err != nil {
			b.Fatal(err)
		}
		points := make([]geom.Vec3, 256)
		for i := range points {
			points[i], _ = w.SampleFreePoint(0.4, 100)
		}
		w.NearestObstacleWithin(points[0], 0) // build the index outside the timing
		for _, q := range []struct {
			name string
			r    float64
		}{{"collision", 0.3}, {"gps", 8}} {
			b.Run(family+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, nearestSink = w.NearestObstacleWithin(points[i%len(points)], q.r)
				}
			})
		}
	}
}
