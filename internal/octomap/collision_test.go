package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavbench/internal/geom"
)

// collidesSphereReference is the per-offset sphere query the blocked query
// replaced: it visits every offset of the pruned ball around p's voxel and
// reads each voxel through logOddsAt.
func collidesSphereReference(m *Map, p geom.Vec3, radius float64, unknownBlocks bool) bool {
	r := int(math.Ceil(radius/m.resolution)) + 1
	center := m.key(p)
	limit := radius + m.resolution*0.87
	bound := radius/m.resolution + 0.87 + math.Sqrt(3)/2 + 1e-9
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for dz := -r; dz <= r; dz++ {
				if float64(dx*dx+dy*dy+dz*dz) > bound*bound {
					continue
				}
				k := voxelKey{center.X + int32(dx), center.Y + int32(dy), center.Z + int32(dz)}
				lo, known := m.logOddsAt(k)
				if known && lo <= occupiedLogOdds || !known && !unknownBlocks {
					continue
				}
				if m.center(k).Dist(p) <= limit {
					return true
				}
			}
		}
	}
	return false
}

// segmentCollidesReference is the per-sample segment query: a reference
// sphere query every half voxel.
func segmentCollidesReference(m *Map, a, b geom.Vec3, radius float64, unknownBlocks bool) bool {
	dist := a.Dist(b)
	steps := int(dist/(m.resolution*0.5)) + 1
	for i := 0; i <= steps; i++ {
		if collidesSphereReference(m, a.Lerp(b, float64(i)/float64(steps)), radius, unknownBlocks) {
			return true
		}
	}
	return false
}

var collisionResolutions = [4]float64{0.15, 0.25, 0.5, 0.8}

// collisionRegion is where randomCollisionMap observes space. It straddles
// the origin, so queries cross chunk boundaries on both sides of zero.
var collisionRegion = geom.NewAABB(geom.V3(-5, -5, 0.5), geom.V3(5, 5, 7))

func regionPoint(rng *rand.Rand, margin float64) geom.Vec3 {
	lo, hi := collisionRegion.Min, collisionRegion.Max
	return geom.V3(
		lo.X-margin+rng.Float64()*(hi.X-lo.X+2*margin),
		lo.Y-margin+rng.Float64()*(hi.Y-lo.Y+2*margin),
		lo.Z-margin+rng.Float64()*(hi.Z-lo.Z+2*margin))
}

// randomCollisionMap observes collisionRegion with rays, scattered hits and
// misses, and voxels cleared again after being occupied. Half the maps first
// see the whole region free, so that conservative queries find fully known
// chunks. One map in four is a Rebuild from another resolution, which writes
// through setLogOdds.
func randomCollisionMap(rng *rand.Rand, res float64) *Map {
	build := res
	rebuild := rng.Intn(4) == 0
	if rebuild {
		build = collisionResolutions[rng.Intn(4)]
	}
	m := New(build, testBounds())
	if rng.Intn(2) == 0 {
		lo, hi := collisionRegion.Min, collisionRegion.Max
		for x := lo.X; x <= hi.X; x += build {
			for y := lo.Y; y <= hi.Y; y += build {
				for z := lo.Z; z <= hi.Z; z += build {
					m.MarkFree(geom.V3(x, y, z))
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		m.InsertRay(regionPoint(rng, 0), regionPoint(rng, 0), 0)
	}
	for i := 0; i < 60; i++ {
		m.MarkOccupied(regionPoint(rng, 0))
	}
	for i := 0; i < 200; i++ {
		m.MarkFree(regionPoint(rng, 0))
	}
	for i := 0; i < 10; i++ {
		p := regionPoint(rng, 0)
		m.MarkOccupied(p)
		for j := 0; j < 4; j++ {
			m.MarkFree(p)
		}
	}
	if rebuild {
		m = m.Rebuild(res)
	}
	return m
}

// queryRadius draws a radius of 0, 0.3–1.0 m, or slightly negative.
func queryRadius(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -0.2 * rng.Float64()
	default:
		return 0.3 + 0.7*rng.Float64()
	}
}

// TestCollisionQueriesMatchReference compares CollidesSphere and
// SegmentCollides with the per-sample reference on random maps at four
// resolutions, random points and segments (zero-length ones included), and
// both unknown-space modes.
func TestCollisionQueriesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var answers, hits int
	var modeAnswers [2][2]int // [conservative][collides]
	for _, res := range collisionResolutions {
		for mapIdx := 0; mapIdx < 6; mapIdx++ {
			m := randomCollisionMap(rng, res)
			for q := 0; q < 200; q++ {
				conservative := q%2 == 1
				radius := queryRadius(rng)
				a := regionPoint(rng, 1)
				b := a
				if q%5 != 0 {
					b = a.Add(regionPoint(rng, 0).Sub(a).Scale(rng.Float64()))
				}
				sphere, want := m.CollidesSphere(a, radius, conservative), collidesSphereReference(m, a, radius, conservative)
				if sphere != want {
					t.Fatalf("res %v: CollidesSphere(%v, %v, %v) = %v, reference %v", res, a, radius, conservative, sphere, want)
				}
				segment, want := m.SegmentCollides(a, b, radius, conservative), segmentCollidesReference(m, a, b, radius, conservative)
				if segment != want {
					t.Fatalf("res %v: SegmentCollides(%v, %v, %v, %v) = %v, reference %v", res, a, b, radius, conservative, segment, want)
				}
				for _, got := range []bool{sphere, segment} {
					answers++
					hits += b2i(got)
					modeAnswers[b2i(conservative)][b2i(got)]++
				}
			}
		}
	}
	t.Logf("%d of %d answers are collisions; [optimistic, conservative][free, collides] = %v", hits, answers, modeAnswers)
	if hits*3 < answers {
		t.Fatalf("only %d of %d answers are collisions; the maps are too sparse to test the queries", hits, answers)
	}
	for mode, n := range modeAnswers {
		if n[0] == 0 || n[1] == 0 {
			t.Fatalf("mode %d answered [free, collides] = %v; each mode needs both answers", mode, n)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzCollisionQueriesMatchReference runs the reference comparison on
// fuzzed points, radii and map seeds.
func FuzzCollisionQueriesMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.0, 0.0, 2.0, 3.0, 1.0, 2.5, 0.5, false)
	f.Add(int64(2), uint8(1), -2.0, 1.0, 1.0, -2.0, 1.0, 1.0, 0.0, true)
	f.Add(int64(3), uint8(2), -4.5, -4.5, 0.6, 4.5, 4.5, 6.9, 1.0, false)
	f.Add(int64(4), uint8(3), 0.4, -0.4, 3.0, 0.4, -0.4, 3.0, -0.1, true)
	f.Fuzz(func(t *testing.T, seed int64, resSel uint8, ax, ay, az, bx, by, bz, radius float64, conservative bool) {
		for _, v := range []float64{ax, ay, az, bx, by, bz} {
			if !(math.Abs(v) <= 20) {
				t.Skip()
			}
		}
		if !(radius >= -1 && radius <= 2) {
			t.Skip()
		}
		res := collisionResolutions[resSel%4]
		m := randomCollisionMap(rand.New(rand.NewSource(seed)), res)
		a, b := geom.V3(ax, ay, az), geom.V3(bx, by, bz)
		for _, p := range []geom.Vec3{a, b} {
			if got, want := m.CollidesSphere(p, radius, conservative), collidesSphereReference(m, p, radius, conservative); got != want {
				t.Fatalf("res %v: CollidesSphere(%v, %v, %v) = %v, reference %v", res, p, radius, conservative, got, want)
			}
		}
		if got, want := m.SegmentCollides(a, b, radius, conservative), segmentCollidesReference(m, a, b, radius, conservative); got != want {
			t.Fatalf("res %v: SegmentCollides(%v, %v, %v, %v) = %v, reference %v", res, a, b, radius, conservative, got, want)
		}
	})
}

// TestMemoryBytesIsTheModelledChunkPayload pins the cloud-offload payload:
// a chunk is priced at 33,328 bytes whatever the Go layout of a chunk is.
func TestMemoryBytesIsTheModelledChunkPayload(t *testing.T) {
	m := New(0.25, testBounds())
	m.MarkOccupied(geom.V3(0.1, 0.1, 0.1))
	if got := m.MemoryBytes(); got != 33328 {
		t.Fatalf("one chunk reports %d bytes, want 33328", got)
	}
	m.MarkOccupied(geom.V3(30, 30, 20))
	if got := m.MemoryBytes(); got != 66656 {
		t.Fatalf("two chunks report %d bytes, want 66656", got)
	}
}
