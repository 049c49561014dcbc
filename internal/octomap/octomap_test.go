package octomap

import (
	"math"
	"testing"
	"testing/quick"

	"mavbench/internal/geom"
)

func testBounds() geom.AABB {
	return geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30))
}

func TestNewDefaults(t *testing.T) {
	m := New(0, testBounds())
	if m.Resolution() != 0.15 {
		t.Errorf("default resolution = %v", m.Resolution())
	}
	if m.Bounds() != testBounds() {
		t.Errorf("bounds mismatch")
	}
	if m.LeafCount() != 0 {
		t.Errorf("fresh map has %d leaves", m.LeafCount())
	}
}

func TestOccupancyStates(t *testing.T) {
	m := New(0.2, testBounds())
	p := geom.V3(1, 1, 1)
	if m.At(p) != Unknown {
		t.Error("untouched voxel should be unknown")
	}
	if m.OccupancyProbability(p) != 0.5 {
		t.Errorf("unknown probability = %v", m.OccupancyProbability(p))
	}

	m.MarkOccupied(p)
	if !m.IsOccupied(p) {
		t.Error("marked voxel should be occupied")
	}
	if m.OccupancyProbability(p) <= 0.5 {
		t.Error("occupied probability should exceed 0.5")
	}

	q := geom.V3(2, 2, 2)
	m.MarkFree(q)
	if !m.IsFree(q) {
		t.Error("marked-free voxel should be free")
	}
	if m.OccupancyProbability(q) >= 0.5 {
		t.Error("free probability should be below 0.5")
	}

	// Repeated free observations eventually override an occupied one.
	for i := 0; i < 10; i++ {
		m.MarkFree(p)
	}
	if m.IsOccupied(p) {
		t.Error("many free observations should clear the voxel")
	}

	// Out-of-bounds updates are ignored.
	m.MarkOccupied(geom.V3(1000, 0, 0))
	if m.At(geom.V3(1000, 0, 0)) != Unknown {
		t.Error("out-of-bounds update should be ignored")
	}

	for _, o := range []Occupancy{Unknown, Free, Occupied, Occupancy(9)} {
		if o.String() == "" {
			t.Error("empty occupancy string")
		}
	}
}

func TestLogOddsClamping(t *testing.T) {
	m := New(0.2, testBounds())
	p := geom.V3(0.1, 0.1, 0.1)
	for i := 0; i < 1000; i++ {
		m.MarkOccupied(p)
	}
	probAfterMany := m.OccupancyProbability(p)
	// With clamping, a handful of free observations can still clear it
	// eventually (no unbounded saturation).
	for i := 0; i < 20; i++ {
		m.MarkFree(p)
	}
	if m.IsOccupied(p) {
		t.Errorf("clamped voxel (p=%v) should be clearable by ~15 misses", probAfterMany)
	}
}

func TestInsertRayCarvesFreeSpace(t *testing.T) {
	m := New(0.2, testBounds())
	origin := geom.V3(0, 0, 5)
	end := geom.V3(10, 0, 5)
	m.InsertRay(origin, end, 0)

	if !m.IsOccupied(end) {
		t.Error("ray endpoint should be occupied")
	}
	if !m.IsFree(geom.V3(5, 0, 5)) {
		t.Error("ray midpoint should be free")
	}
	if m.RaysTraced() != 1 {
		t.Errorf("RaysTraced = %d", m.RaysTraced())
	}
}

func TestInsertRayMaxRangeTruncation(t *testing.T) {
	m := New(0.2, testBounds())
	origin := geom.V3(0, 0, 5)
	end := geom.V3(30, 0, 5)
	m.InsertRay(origin, end, 10)
	// The endpoint is beyond max range: nothing beyond 10 m should be
	// occupied; space up to 10 m is carved free.
	if m.At(end) != Unknown {
		t.Error("beyond-range endpoint should stay unknown")
	}
	if !m.IsFree(geom.V3(8, 0, 5)) {
		t.Error("space within range should be carved free")
	}
	occupiedAt10 := m.IsOccupied(geom.V3(10, 0, 5))
	if occupiedAt10 {
		t.Error("truncated rays must not create phantom obstacles")
	}
	// Zero-length rays are ignored.
	m.InsertRay(origin, origin, 10)
}

func TestInsertPointCloud(t *testing.T) {
	m := New(0.2, testBounds())
	origin := geom.V3(0, 0, 5)
	var pts []geom.Vec3
	for y := -2.0; y <= 2.0; y += 0.1 {
		pts = append(pts, geom.V3(10, y, 5))
	}
	m.InsertPointCloud(origin, pts, 20)
	if m.Inserts() != 1 {
		t.Errorf("Inserts = %d", m.Inserts())
	}
	if m.PointsAdded() == 0 {
		t.Error("no points added")
	}
	if !m.IsOccupied(geom.V3(10, 0, 5)) {
		t.Error("wall should be occupied")
	}
	if !m.IsFree(geom.V3(5, 0, 5)) {
		t.Error("space before the wall should be free")
	}
	st := m.Stats()
	if st.Occupied == 0 || st.Free == 0 || st.Leaves != st.Occupied+st.Free {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.MemoryBytes <= 0 || st.KnownVolumeM3 <= 0 || st.OccupiedVolumeM3 <= 0 {
		t.Errorf("bad stats: %+v", st)
	}
}

func TestCollidesSphere(t *testing.T) {
	m := New(0.2, testBounds())
	m.MarkOccupied(geom.V3(5, 0, 5))
	// Mark surrounding region free so conservative queries don't trip on
	// unknown space.
	for x := 3.0; x <= 7.0; x += 0.1 {
		for y := -2.0; y <= 2.0; y += 0.1 {
			for z := 4.0; z <= 6.0; z += 0.1 {
				if m.At(geom.V3(x, y, z)) == Unknown {
					m.MarkFree(geom.V3(x, y, z))
				}
			}
		}
	}

	if !m.CollidesSphere(geom.V3(5.2, 0, 5), 0.5, false) {
		t.Error("sphere overlapping occupied voxel should collide")
	}
	if m.CollidesSphere(geom.V3(6.5, 0, 5), 0.5, false) {
		t.Error("sphere in free space should not collide (optimistic)")
	}
	// Conservative mode: unknown space collides.
	if !m.CollidesSphere(geom.V3(20, 20, 10), 0.5, true) {
		t.Error("unknown space should collide in conservative mode")
	}
	if m.CollidesSphere(geom.V3(20, 20, 10), 0.5, false) {
		t.Error("unknown space should not collide in optimistic mode")
	}
}

func TestSegmentCollides(t *testing.T) {
	m := New(0.2, testBounds())
	// Build a wall at x=5 spanning y in [-3,3], z in [3,7].
	for y := -3.0; y <= 3.0; y += 0.1 {
		for z := 3.0; z <= 7.0; z += 0.1 {
			m.MarkOccupied(geom.V3(5, y, z))
		}
	}
	if !m.SegmentCollides(geom.V3(0, 0, 5), geom.V3(10, 0, 5), 0.3, false) {
		t.Error("segment through wall should collide")
	}
	if m.SegmentCollides(geom.V3(0, 10, 5), geom.V3(10, 10, 5), 0.3, false) {
		t.Error("segment far from wall should not collide (optimistic)")
	}
}

func TestResolutionInflatesObstacles(t *testing.T) {
	// The Figure 17 effect: at coarse resolution a doorway-sized gap
	// disappears because voxels overlapping the walls swallow it.
	buildWallsWithGap := func(res float64) *Map {
		m := New(res, testBounds())
		// Observe the gap itself as free first (rays passing through it), then
		// integrate the wall hits; occupied observations dominate, as they do
		// in OctoMap's sensor model.
		for y := -0.35; y <= 0.35; y += 0.05 {
			for z := 0.0; z <= 3.0; z += 0.05 {
				m.MarkFree(geom.V3(5, y, z))
			}
		}
		// Two wall segments along Y with a 0.8 m gap centered at y=0.
		for y := -5.0; y <= -0.4; y += 0.05 {
			for z := 0.0; z <= 3.0; z += 0.05 {
				m.MarkOccupied(geom.V3(5, y, z))
			}
		}
		for y := 0.4; y <= 5.0; y += 0.05 {
			for z := 0.0; z <= 3.0; z += 0.05 {
				m.MarkOccupied(geom.V3(5, y, z))
			}
		}
		return m
	}

	fine := buildWallsWithGap(0.15)
	coarse := buildWallsWithGap(0.8)

	probe := geom.V3(5, 0, 1.5)
	// Fine map: the gap center is passable for a small drone.
	if fine.CollidesSphere(probe, 0.2, false) {
		t.Error("fine-resolution map should keep the doorway open")
	}
	// Coarse map: 0.8 m voxels overlapping the walls swallow the gap.
	if !coarse.CollidesSphere(probe, 0.2, false) {
		t.Error("coarse-resolution map should close the doorway")
	}
}

func TestFrontierCells(t *testing.T) {
	m := New(0.5, geom.NewAABB(geom.V3(0, 0, 0), geom.V3(20, 20, 10)))
	// Observe a free corridor; its edge should be a frontier.
	origin := geom.V3(1, 1, 2)
	m.InsertRay(origin, geom.V3(10, 1, 2), 15)

	fr := m.FrontierCells(nil, 0)
	if len(fr) == 0 {
		t.Fatal("no frontier cells found")
	}
	for _, c := range fr {
		if m.At(c) != Free {
			t.Errorf("frontier cell %v is not free", c)
		}
	}
	// Limited query returns at most the limit.
	if got := m.FrontierCells(nil, 3); len(got) > 3 {
		t.Errorf("limit ignored: %d cells", len(got))
	}
	// Cells are appended after dst's contents, and the limit counts only the
	// appended cells.
	sentinel := geom.V3(-1, -1, -1)
	got := m.FrontierCells([]geom.Vec3{sentinel}, 3)
	if len(got) != 1+min(3, len(fr)) || got[0] != sentinel || got[1] != fr[0] {
		t.Errorf("append form returned %v, want %v then the first cells of %v", got, sentinel, fr)
	}
}

func TestKnownFractionGrowsWithObservations(t *testing.T) {
	m := New(0.5, geom.NewAABB(geom.V3(0, 0, 0), geom.V3(20, 20, 5)))
	if m.KnownFraction() != 0 {
		t.Error("fresh map should have zero known fraction")
	}
	before := m.KnownFraction()
	for x := 1.0; x < 19; x += 2 {
		for y := 1.0; y < 19; y += 2 {
			m.InsertRay(geom.V3(x, y, 4), geom.V3(x, y, 0), 10)
		}
	}
	after := m.KnownFraction()
	if after <= before {
		t.Error("observations should increase the known fraction")
	}
	if after > 1 {
		t.Errorf("known fraction %v exceeds 1", after)
	}
}

func TestRebuildChangesResolution(t *testing.T) {
	m := New(0.15, testBounds())
	m.InsertRay(geom.V3(0, 0, 5), geom.V3(10, 0, 5), 0)
	coarse := m.Rebuild(0.8)
	if coarse.Resolution() != 0.8 {
		t.Errorf("rebuilt resolution = %v", coarse.Resolution())
	}
	if coarse.LeafCount() >= m.LeafCount() {
		t.Errorf("coarser map should have fewer leaves: %d vs %d", coarse.LeafCount(), m.LeafCount())
	}
	// The wall endpoint stays occupied after rebuilding.
	if !coarse.IsOccupied(geom.V3(10, 0, 5)) {
		t.Error("occupied space lost in rebuild")
	}
	// Free space along the ray stays known.
	if coarse.At(geom.V3(5, 0, 5)) == Unknown {
		t.Error("free space lost in rebuild")
	}
}

func TestClear(t *testing.T) {
	m := New(0.2, testBounds())
	m.InsertRay(geom.V3(0, 0, 5), geom.V3(5, 0, 5), 0)
	m.Clear()
	if m.LeafCount() != 0 || m.Inserts() != 0 || m.RaysTraced() != 0 || m.PointsAdded() != 0 {
		t.Error("Clear did not reset the map")
	}
}

func TestVoxelCenterConsistency(t *testing.T) {
	m := New(0.25, testBounds())
	f := func(x, y, z float64) bool {
		p := geom.V3(math.Mod(x, 40), math.Mod(y, 40), math.Abs(math.Mod(z, 25)))
		if !p.IsFinite() {
			return true
		}
		c := m.VoxelCenter(p)
		// The center must be within half a voxel (in each axis) of the point.
		d := c.Sub(p)
		h := m.Resolution()/2 + 1e-9
		return math.Abs(d.X) <= h && math.Abs(d.Y) <= h && math.Abs(d.Z) <= h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMarkingIsIdempotentOnClassificationProperty(t *testing.T) {
	// Property: after marking a point occupied N>=1 times with no free
	// observations, it is always classified occupied.
	m := New(0.3, testBounds())
	f := func(n uint8, x, y float64) bool {
		p := geom.V3(math.Mod(x, 40), math.Mod(y, 40), 5)
		if !p.IsFinite() {
			return true
		}
		m.Clear()
		count := int(n%20) + 1
		for i := 0; i < count; i++ {
			m.MarkOccupied(p)
		}
		return m.IsOccupied(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
