package octomap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mavbench/internal/geom"
)

// insertRayReference is ray insertion as a plain per-sample loop: every
// sample goes through bounds.Contains, key and update, as MarkFree sends it,
// and the endpoint through update, as MarkOccupied sends it.
func insertRayReference(m *Map, origin, end geom.Vec3, maxRange float64) {
	dir := end.Sub(origin)
	dist := dir.Norm()
	if dist == 0 {
		return
	}
	truncated := false
	if maxRange > 0 && dist > maxRange {
		end = origin.Add(dir.Scale(maxRange / dist))
		dist = maxRange
		truncated = true
	}
	steps := int(dist/m.resolution) + 1
	for i := 0; i < steps; i++ {
		p := origin.Lerp(end, float64(i)/float64(steps))
		if m.bounds.Contains(p) {
			m.update(m.key(p), logOddsMiss)
		}
	}
	if !truncated && m.bounds.Contains(end) {
		m.update(m.key(end), logOddsHit)
		m.pointsAdded++
	}
	m.raysTraced++
}

// insertPointCloudReference is InsertPointCloud without the insertion memo.
func insertPointCloudReference(m *Map, origin geom.Vec3, points []geom.Vec3, maxRange float64) {
	for _, p := range points {
		insertRayReference(m, origin, p, maxRange)
	}
	m.inserts++
}

// sameMap reports the first difference between got and want: in any chunk's
// log-odds bits, known or occupied bitmap, or counts, or in the map's
// counters.
func sameMap(got, want *Map) error {
	if got.leafCount != want.leafCount || got.raysTraced != want.raysTraced ||
		got.pointsAdded != want.pointsAdded || got.inserts != want.inserts || got.version != want.version {
		return fmt.Errorf("counters (leaves, rays, points, inserts, version) = (%d, %d, %d, %d, %d), reference (%d, %d, %d, %d, %d)",
			got.leafCount, got.raysTraced, got.pointsAdded, got.inserts, got.version,
			want.leafCount, want.raysTraced, want.pointsAdded, want.inserts, want.version)
	}
	if len(got.chunks) != len(want.chunks) {
		return fmt.Errorf("%d chunks, reference %d", len(got.chunks), len(want.chunks))
	}
	for ck, wc := range want.chunks {
		gc := got.chunks[ck]
		if gc == nil {
			return fmt.Errorf("chunk %v missing", ck)
		}
		for li := range wc.logOdds {
			if math.Float64bits(gc.logOdds[li]) != math.Float64bits(wc.logOdds[li]) {
				return fmt.Errorf("chunk %v voxel %d: log-odds %v, reference %v", ck, li, gc.logOdds[li], wc.logOdds[li])
			}
		}
		if gc.known != wc.known || gc.occBits != wc.occBits || gc.count != wc.count || gc.occ != wc.occ {
			return fmt.Errorf("chunk %v: bitmaps or counts (%d known, %d occupied) differ from the reference (%d, %d)",
				ck, gc.count, gc.occ, wc.count, wc.occ)
		}
	}
	return nil
}

// insertBounds are the extents the reference test inserts into, each with the
// centre of its scenes and a point just outside the bounds near them: the
// package's 100 m test box; a 7×7×3 m box that most rays leave; ±1e8 m,
// where quantizeIn's fast path sees keys up to 2^30; and ±2e8 m, where at
// 0.1 and 0.15 m the keys are too large for it and every sample takes the
// division. The two large boxes have no chunk grid, and their scenes
// straddle a face, so rays cross it.
var insertBounds = []struct {
	name            string
	bounds          geom.AABB
	centre, outside geom.Vec3
}{
	{"test", testBounds(), geom.V3(0, 0, 10), geom.V3(0, 0, -1.5)},
	{"7x7x3", geom.NewAABB(geom.V3(-3.5, -3.5, 0), geom.V3(3.5, 3.5, 3)), geom.V3(0, 0, 1.5), geom.V3(5, 0, 1.5)},
	{"1e8", geom.NewAABB(geom.V3(-1e8, -1e8, -1e8), geom.V3(1e8, 1e8, 1e8)), geom.V3(-1e8+4, 3e7, 1e8-4), geom.V3(-1e8-1.5, 3e7, 1e8+1.5)},
	{"2e8", geom.NewAABB(geom.V3(-2e8, -2e8, -2e8), geom.V3(2e8, 2e8, 2e8)), geom.V3(2e8-4, -2e8+4, 5e7), geom.V3(2e8+1.5, -2e8+4, 5e7)},
}

// scanOrigin draws a sensor origin for a scene of insertBounds[b]: near its
// centre, on a voxel boundary there (every coordinate a multiple of the
// resolution, where quantize's guard fails), or outside the bounds.
func scanOrigin(rng *rand.Rand, m *Map, b int) geom.Vec3 {
	jitter := func(p geom.Vec3, s float64) geom.Vec3 {
		return p.Add(geom.V3(s*(2*rng.Float64()-1), s*(2*rng.Float64()-1), s*(2*rng.Float64()-1)))
	}
	switch rng.Intn(3) {
	case 0:
		return jitter(insertBounds[b].centre, 2)
	case 1:
		p := jitter(insertBounds[b].centre, 3)
		snap := func(x float64) float64 { return math.Round(x/m.resolution) * m.resolution }
		return geom.V3(snap(p.X), snap(p.Y), snap(p.Z))
	default:
		return jitter(insertBounds[b].outside, 0.5)
	}
}

// scanPoints draws a scan around centre: random endpoints, some extended
// through an earlier endpoint so its voxel is carved after the hit (the
// miss crossing the occupied threshold), and the origin itself (a
// zero-length ray).
func scanPoints(rng *rand.Rand, origin, centre geom.Vec3) []geom.Vec3 {
	var pts []geom.Vec3
	for range 40 {
		p := centre.Add(geom.V3(12*(2*rng.Float64()-1), 12*(2*rng.Float64()-1), 4*(2*rng.Float64()-1)))
		pts = append(pts, p)
		if rng.Intn(3) == 0 {
			pts = append(pts, origin.Lerp(p, 1.1+0.5*rng.Float64()))
		}
	}
	return append(pts, origin)
}

// TestInsertPointCloudMatchesReference inserts random scans into one map with
// InsertPointCloud and into another with insertPointCloudReference, and
// requires them to agree voxel for voxel: every chunk's log-odds bits,
// bitmaps and counts, and the map's counters.
func TestInsertPointCloudMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var fast, slow, memo int
	for _, res := range [...]float64{0.1, 0.15, 0.25, 0.5, 0.8} {
		for b, ib := range insertBounds {
			for _, maxRange := range [...]float64{0, 5, 20} {
				got, want := New(res, ib.bounds), New(res, ib.bounds)
				if math.IsInf(got.epsIn, 1) {
					slow++
				} else {
					fast++
				}
				for range 4 {
					origin := scanOrigin(rng, got, b)
					pts := scanPoints(rng, origin, ib.centre)
					got.InsertPointCloud(origin, pts, maxRange)
					insertPointCloudReference(want, origin, pts, maxRange)
				}
				// One scan of distant points, re-inserted until its truncated
				// rays have saturated free and the memo answers.
				origin := scanOrigin(rng, got, b)
				far := []geom.Vec3{origin.Add(geom.V3(30, 1, 2)), origin.Add(geom.V3(-2, 30, -1)), origin.Add(geom.V3(1, -2, -30))}
				for i := range 8 {
					if i > 0 && got.memoClean {
						memo++ // the previous, identical insertion changed nothing
					}
					got.InsertPointCloud(origin, far, maxRange)
					insertPointCloudReference(want, origin, far, maxRange)
				}
				if err := sameMap(got, want); err != nil {
					t.Fatalf("res %v, %s bounds, maxRange %v: %v", res, ib.name, maxRange, err)
				}
			}
		}
	}
	if fast == 0 || slow == 0 || memo == 0 {
		t.Fatalf("maps on quantizeIn %d, on key %d, memo answers %d: every path must be exercised", fast, slow, memo)
	}
}

// FuzzInsertRayMatchesReference fuzzes TestInsertPointCloudMatchesReference's
// comparison on single rays: each is inserted forward twice and backward
// once, so later samples meet voxels the earlier passes wrote.
func FuzzInsertRayMatchesReference(f *testing.F) {
	f.Add(0.0, 0.0, 5.0, 10.0, 0.0, 5.0, 0.0, 0.2, uint8(0))
	f.Add(-20.0, 3.0, 1.0, 40.0, -3.0, 29.0, 15.0, 0.8, uint8(0))
	f.Add(5.0, 0.3, 1.5, -5.0, 0.2, 1.0, 0.0, 0.15, uint8(1))
	f.Add(0.3, 0.45, 0.6, 0.3, 0.45, 3.0, 2.0, 0.15, uint8(1))
	f.Add(-2.0, 1.0, -3.0, 9.0, -4.0, 2.0, 0.0, 0.1, uint8(2))
	f.Add(6.0, -1.0, 2.0, -8.0, 3.0, -4.0, 5.0, 0.1, uint8(3))
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.15, uint8(0)) // zero-length
	f.Fuzz(func(t *testing.T, ox, oy, oz, ex, ey, ez, maxRange, res float64, sel uint8) {
		if !(res > 0.01 && res < 2) || !(maxRange >= 0 && maxRange < 1e6) {
			t.Skip()
		}
		for _, v := range []float64{ox, oy, oz, ex, ey, ez} {
			if !(math.Abs(v) <= 1e3) {
				t.Skip()
			}
		}
		ib := insertBounds[int(sel)%len(insertBounds)]
		origin, end := ib.centre.Add(geom.V3(ox, oy, oz)), ib.centre.Add(geom.V3(ex, ey, ez))
		got, want := New(res, ib.bounds), New(res, ib.bounds)
		for _, r := range [][2]geom.Vec3{{origin, end}, {end, origin}, {origin, end}} {
			got.InsertRay(r[0], r[1], maxRange)
			insertRayReference(want, r[0], r[1], maxRange)
		}
		if err := sameMap(got, want); err != nil {
			t.Fatalf("%s bounds, %v -> %v, maxRange %v, res %v: %v", ib.name, origin, end, maxRange, res, err)
		}
	})
}

// TestNewHugeBoundsHasNoGrid: bounds whose chunk count overflows int64 when
// multiplied out get no chunk grid, and the map still inserts rays and reads
// them back.
func TestNewHugeBoundsHasNoGrid(t *testing.T) {
	for _, lim := range []float64{1e8, 3e8} {
		m := New(0.15, geom.NewAABB(geom.V3(-lim, -lim, -lim), geom.V3(lim, lim, lim)))
		if m.grid != nil {
			t.Fatalf("±%g m: a grid of %d chunks", lim, len(m.grid))
		}
		origin, end := geom.V3(lim-20, 0, -lim+5), geom.V3(lim-10, 0, -lim+5)
		m.InsertRay(origin, end, 0)
		if m.At(end) != Occupied || m.At(origin.Lerp(end, 0.5)) != Free {
			t.Fatalf("±%g m: endpoint %v, midpoint %v", lim, m.At(end), m.At(origin.Lerp(end, 0.5)))
		}
	}
}

// TestQuantizeInAgreesWithQuantize probes quantizeIn where it is fragile:
// within a few ulps of voxel boundaries, where x·invRes and x/res can floor
// to different voxels, with keys up to the 2^30 below which its fast path
// runs.
func TestQuantizeInAgreesWithQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	straddles := 0
	for _, res := range [...]float64{0.1, 0.15, 0.25, 0.5, 0.8} {
		for _, lim := range [...]float64{50, 1e8} {
			m := New(res, geom.NewAABB(geom.V3(-lim, -lim, -lim), geom.V3(lim, lim, lim)))
			if math.IsInf(m.epsIn, 1) {
				t.Fatalf("res %v, ±%g m: keys too large for quantizeIn's fast path", res, lim)
			}
			keys := int64(lim / res)
			for range 20000 {
				x := float64(rng.Int63n(2*keys)-keys) * res
				for range rng.Intn(4) {
					x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
				}
				if math.Abs(x) > lim {
					continue
				}
				want := m.quantize(x)
				if int32(math.Floor(x*m.invRes)) != want {
					straddles++
				}
				if got := m.quantizeIn(x); got != want {
					t.Fatalf("res %v: quantizeIn(%v) = %d, quantize = %d", res, x, got, want)
				}
			}
		}
	}
	if straddles == 0 {
		t.Fatal("no probe floored differently by product and division: the guard went untested")
	}
}
