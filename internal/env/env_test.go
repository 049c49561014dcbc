package env

import (
	"math"
	"testing"
	"testing/quick"

	"mavbench/internal/geom"
)

func TestWorldOccupied(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-10, -10, 0), geom.V3(10, 10, 10)), 1)
	w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(5, 5, 2), geom.V3(2, 2, 4)), "box")

	if !w.Occupied(geom.V3(5, 5, 2), 0) {
		t.Error("point inside obstacle should be occupied")
	}
	if w.Occupied(geom.V3(0, 0, 5), 0) {
		t.Error("free point reported occupied")
	}
	// Ground.
	if !w.Occupied(geom.V3(0, 0, -1), 0) {
		t.Error("below ground should be occupied")
	}
	if !w.Occupied(geom.V3(0, 0, 0.2), 0.5) {
		t.Error("point within radius of the ground should be occupied")
	}
	// Out of bounds.
	if !w.Occupied(geom.V3(50, 0, 5), 0) {
		t.Error("out-of-bounds point should be occupied")
	}
	// Radius inflation around the obstacle.
	if !w.Occupied(geom.V3(5, 6.4, 2), 0.5) {
		t.Error("point within inflated obstacle should be occupied")
	}
	if w.Occupied(geom.V3(5, 7, 2), 0.5) {
		t.Error("point beyond inflation should be free")
	}
}

func TestSegmentCollides(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-10, -10, 0), geom.V3(10, 10, 10)), 1)
	w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(0, 0, 5), geom.V3(2, 2, 10)), "pillar")

	if !w.SegmentCollides(geom.V3(-5, 0, 5), geom.V3(5, 0, 5), 0.3) {
		t.Error("segment through pillar should collide")
	}
	if w.SegmentCollides(geom.V3(-5, 5, 5), geom.V3(5, 5, 5), 0.3) {
		t.Error("segment far from pillar should not collide")
	}
	if !w.SegmentCollides(geom.V3(-5, 5, 0.1), geom.V3(5, 5, 0.1), 0.3) {
		t.Error("segment hugging the ground should collide")
	}
}

func TestRayCast(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 50)), 1)
	w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(10, 0, 5), geom.V3(2, 2, 10)), "pillar")

	d, hit := w.RayCast(geom.V3(0, 0, 5), geom.V3(1, 0, 0), 100)
	if !hit || math.Abs(d-9) > 1e-9 {
		t.Errorf("ray toward pillar: d=%v hit=%v, want 9", d, hit)
	}
	// Miss: pointing away.
	if _, hit := w.RayCast(geom.V3(0, 0, 5), geom.V3(-1, 0, 0), 30); hit {
		t.Error("ray away from pillar should miss within 30 m (no walls in bounds)")
	}
	// Ground hit.
	d, hit = w.RayCast(geom.V3(0, 0, 5), geom.V3(0, 0, -1), 100)
	if !hit || math.Abs(d-5) > 1e-9 {
		t.Errorf("downward ray: d=%v hit=%v, want 5", d, hit)
	}
	// Out of range.
	if _, hit := w.RayCast(geom.V3(0, 0, 5), geom.V3(1, 0, 0), 5); hit {
		t.Error("hit beyond max range should not be reported")
	}
	// Degenerate direction.
	if _, hit := w.RayCast(geom.V3(0, 0, 5), geom.Vec3{}, 10); hit {
		t.Error("zero direction should not hit")
	}
}

func TestDynamicObstaclePatrol(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 20)), 1)
	a, b := geom.V3(0, 0, 1), geom.V3(10, 0, 1)
	o := w.AddDynamicObstacle(geom.BoxAt(a, geom.V3(1, 1, 1)), a, b, 1.0, "walker")
	if !o.IsDynamic() {
		t.Fatal("obstacle should be dynamic")
	}

	w.Step(5)
	if got := o.Center(); !geom.Vec3ApproxEqual(got, geom.V3(5, 0, 1), 1e-6) {
		t.Errorf("after 5 s at 1 m/s center = %v, want (5,0,1)", got)
	}
	w.Step(5)
	if got := o.Center(); !geom.Vec3ApproxEqual(got, geom.V3(10, 0, 1), 1e-6) {
		t.Errorf("after 10 s center = %v, want (10,0,1)", got)
	}
	// Turns around and comes back.
	w.Step(5)
	if got := o.Center(); !geom.Vec3ApproxEqual(got, geom.V3(5, 0, 1), 1e-6) {
		t.Errorf("after 15 s center = %v, want (5,0,1)", got)
	}
	// Full cycle returns to A.
	w.Step(5)
	if got := o.Center(); !geom.Vec3ApproxEqual(got, geom.V3(0, 0, 1), 1e-6) {
		t.Errorf("after 20 s center = %v, want (0,0,1)", got)
	}
	if w.Elapsed() != 20 {
		t.Errorf("Elapsed = %v", w.Elapsed())
	}
	// Zero or negative steps are ignored.
	w.Step(0)
	w.Step(-1)
	if w.Elapsed() != 20 {
		t.Errorf("Elapsed after no-op steps = %v", w.Elapsed())
	}
}

func TestStaticObstacleUnaffectedByStep(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 20)), 1)
	o := w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(3, 3, 3), geom.V3(1, 1, 1)), "box")
	before := o.Center()
	w.Step(10)
	if o.Center() != before {
		t.Error("static obstacle moved")
	}
}

// nearestByScan is the reference for NearestObstacleWithin: a scan over every
// obstacle in Obstacles() order, the first of equally near ones winning.
func nearestByScan(w *World, p geom.Vec3) (float64, *Obstacle) {
	best := math.Inf(1)
	var bestObs *Obstacle
	for _, o := range w.Obstacles() {
		if d := o.Box.DistanceTo(p); d < best {
			best, bestObs = d, o
		}
	}
	return best, bestObs
}

func TestNearestObstacleDistance(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 20)), 1)
	p := geom.V3(0, 0, 5)
	d, o := w.NearestObstacleWithin(p, math.Inf(1))
	if !math.IsInf(d, 1) || o != nil {
		t.Error("empty world should report +Inf")
	}
	w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(10, 0, 5), geom.V3(2, 2, 2)), "near")
	w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(30, 0, 5), geom.V3(2, 2, 2)), "far")
	d, o = w.NearestObstacleWithin(p, math.Inf(1))
	if o == nil || o.Label != "near" {
		t.Fatalf("nearest = %v", o)
	}
	if math.Abs(d-9) > 1e-9 {
		t.Errorf("distance = %v, want 9", d)
	}
	if refD, refO := nearestByScan(w, p); refO != o || refD != d {
		t.Errorf("NearestObstacleWithin = %v %v, scan = %v %v", d, o, refD, refO)
	}
	// The radius is inclusive: the near box is exactly 9 m away.
	if d, o := w.NearestObstacleWithin(p, 9); o == nil || o.Label != "near" || d != 9 {
		t.Errorf("within 9 m: %v %v, want near at 9", d, o)
	}
	if d, o := w.NearestObstacleWithin(p, 8.999); o != nil || !math.IsInf(d, 1) {
		t.Errorf("within 8.999 m: %v %v, want +Inf and nil", d, o)
	}
}

func TestTargetsAndKinds(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 20)), 1)
	w.AddObstacle(KindStructure, geom.BoxAt(geom.V3(1, 1, 1), geom.V3(1, 1, 1)), "box")
	w.AddObstacle(KindPerson, geom.BoxAt(geom.V3(5, 5, 1), geom.V3(0.5, 0.5, 1.8)), "person")
	w.AddObstacle(KindDeliveryPad, geom.BoxAt(geom.V3(9, 9, 0.1), geom.V3(1, 1, 0.2)), "pad")

	if got := len(w.Targets()); got != 2 {
		t.Errorf("Targets = %d, want 2", got)
	}
	if got := len(w.ObstaclesOfKind(KindStructure)); got != 1 {
		t.Errorf("structures = %d", got)
	}
	if w.ObstacleCount() != 3 {
		t.Errorf("ObstacleCount = %d", w.ObstacleCount())
	}
	for _, k := range []ObstacleKind{KindStructure, KindDynamic, KindPerson, KindDeliveryPad, ObstacleKind(99)} {
		if k.String() == "" {
			t.Errorf("empty String for kind %d", k)
		}
	}
}

func TestSampleFreePoint(t *testing.T) {
	w := New("test", geom.NewAABB(geom.V3(-10, -10, 0), geom.V3(10, 10, 10)), 7)
	p, ok := w.SampleFreePoint(0.5, 100)
	if !ok {
		t.Fatal("should find a free point in a nearly empty world")
	}
	if w.Occupied(p, 0.5) {
		t.Error("sampled point is occupied")
	}

	// A world whose entire volume is blocked never returns a free point.
	blocked := New("blocked", geom.NewAABB(geom.V3(-1, -1, 0), geom.V3(1, 1, 1)), 7)
	blocked.AddObstacle(KindStructure, geom.NewAABB(geom.V3(-2, -2, -1), geom.V3(2, 2, 2)), "fill")
	if _, ok := blocked.SampleFreePoint(0.1, 50); ok {
		t.Error("fully blocked world returned a free point")
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	a := NewUrbanWorld(DefaultUrbanConfig(42))
	b := NewUrbanWorld(DefaultUrbanConfig(42))
	if a.ObstacleCount() != b.ObstacleCount() {
		t.Fatalf("same seed produced different worlds: %d vs %d", a.ObstacleCount(), b.ObstacleCount())
	}
	for i := range a.Obstacles() {
		if a.Obstacles()[i].Box != b.Obstacles()[i].Box {
			t.Fatalf("obstacle %d differs between same-seed worlds", i)
		}
	}
	c := NewUrbanWorld(DefaultUrbanConfig(43))
	same := a.ObstacleCount() == c.ObstacleCount()
	if same {
		for i := range a.Obstacles() {
			if a.Obstacles()[i].Box != c.Obstacles()[i].Box {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical worlds")
	}
}

func TestUrbanWorldProperties(t *testing.T) {
	w := NewUrbanWorld(DefaultUrbanConfig(3))
	if w.ObstacleCount() < 10 {
		t.Errorf("urban world too sparse: %d obstacles", w.ObstacleCount())
	}
	// The origin corridor must stay clear for takeoff.
	if w.Occupied(geom.V3(0, 0, 2), 1.0) {
		t.Error("takeoff area near origin is blocked")
	}
	// Obstacles stay within bounds.
	for _, o := range w.Obstacles() {
		if o.Kind == KindDynamic {
			continue
		}
		if !w.Bounds.Expand(1).Intersects(o.Box) {
			t.Errorf("obstacle %v entirely outside bounds", o.Box)
		}
	}
	if got := len(w.ObstaclesOfKind(KindDynamic)); got == 0 {
		t.Error("urban world should contain dynamic obstacles")
	}
}

func TestObstacleDensityKnob(t *testing.T) {
	sparseCfg := DefaultUrbanConfig(5)
	sparseCfg.BuildingDensity = 0.1
	denseCfg := DefaultUrbanConfig(5)
	denseCfg.BuildingDensity = 0.8

	sparse := NewUrbanWorld(sparseCfg)
	dense := NewUrbanWorld(denseCfg)
	if dense.ObstacleCount() <= sparse.ObstacleCount() {
		t.Errorf("density knob had no effect: sparse=%d dense=%d", sparse.ObstacleCount(), dense.ObstacleCount())
	}
	if sparse.FreeVolumeFraction(2000) <= dense.FreeVolumeFraction(2000) {
		t.Error("denser world should have less free volume")
	}
}

func TestIndoorWorldDoorways(t *testing.T) {
	cfg := DefaultIndoorConfig(11)
	w := NewIndoorWorld(cfg)
	doors := DoorwayCenters(w)
	if len(doors) == 0 {
		t.Fatal("indoor world has no doorways")
	}
	for _, d := range doors {
		// The center of each doorway must be free for a small drone.
		if w.Occupied(d, 0.3) {
			t.Errorf("doorway center %v is occupied", d)
		}
		// But the wall right next to the doorway (offset beyond half a door
		// width plus margin) must be occupied.
		side := d.Add(geom.V3(0, cfg.DoorWidth/2+1.0, 0))
		if !w.Occupied(side, 0.0) && !w.Occupied(d.Sub(geom.V3(0, cfg.DoorWidth/2+1.0, 0)), 0.0) {
			t.Errorf("no wall found next to doorway at %v", d)
		}
	}
}

func TestFarmWorldMostlyFree(t *testing.T) {
	w := NewFarmWorld(DefaultFarmConfig(17))
	if f := w.FreeVolumeFraction(2000); f < 0.9 {
		t.Errorf("farm world should be mostly free space, got %.2f", f)
	}
	// At survey altitude the center of the field is clear.
	if w.Occupied(geom.V3(0, 0, 20), 1) {
		t.Error("survey altitude blocked at field center")
	}
}

func TestDisasterWorldHasSurvivor(t *testing.T) {
	w := NewDisasterWorld(DefaultDisasterConfig(23))
	persons := w.ObstaclesOfKind(KindPerson)
	if len(persons) != 1 {
		t.Fatalf("want exactly 1 survivor, got %d", len(persons))
	}
	if w.ObstacleCount() < 20 {
		t.Errorf("disaster world should be cluttered, got %d obstacles", w.ObstacleCount())
	}
	// Start corner must be clear for takeoff.
	if w.Occupied(geom.V3(3, 3, 2), 0.7) {
		t.Error("start corner blocked")
	}
}

func TestPhotographyWorldSubject(t *testing.T) {
	w, subject := NewPhotographyWorld(DefaultPhotographyConfig(31))
	if subject == nil || subject.Kind != KindPerson || !subject.IsDynamic() {
		t.Fatalf("invalid subject: %+v", subject)
	}
	start := subject.Center()
	w.Step(10)
	if subject.Center() == start {
		t.Error("subject did not move")
	}
}

func TestBoundedEmptyWorld(t *testing.T) {
	w := BoundedEmptyWorld(50, 30, 1)
	if w.ObstacleCount() != 0 {
		t.Errorf("empty world has %d obstacles", w.ObstacleCount())
	}
	if w.Occupied(geom.V3(0, 0, 10), 1) {
		t.Error("interior of empty world occupied")
	}
}

// Property: RayCast never reports a hit closer than the true nearest obstacle
// distance.
func TestRayCastConsistencyProperty(t *testing.T) {
	w := NewUrbanWorld(DefaultUrbanConfig(99))
	f := func(px, py, dx, dy, dz float64) bool {
		origin := geom.V3(math.Mod(px, 80), math.Mod(py, 80), 10)
		if w.Occupied(origin, 0) {
			return true
		}
		dir := geom.V3(dx, dy, dz)
		if dir.Norm() < 1e-6 || !dir.IsFinite() {
			return true
		}
		dHit, hit := w.RayCast(origin, dir, 100)
		if !hit {
			return true
		}
		nearest, _ := nearestByScan(w, origin)
		// Allow the ground plane, which nearestByScan ignores.
		groundDist := origin.Z - w.GroundZ
		minPossible := math.Min(nearest, groundDist)
		return dHit >= minPossible-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSamplePointInBounds(t *testing.T) {
	w := NewUrbanWorld(DefaultUrbanConfig(7))
	for i := 0; i < 100; i++ {
		if p := w.SamplePoint(); !w.Bounds.Contains(p) {
			t.Fatalf("sampled point %v outside bounds", p)
		}
	}
}
