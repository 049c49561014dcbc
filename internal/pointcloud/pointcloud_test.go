package pointcloud

import (
	"math"
	"testing"
	"testing/quick"

	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sensors"
)

// wallOptions decimates the 640x480 test frame 8x and bounds it to the
// camera's range.
var wallOptions = Options{Stride: 8, MaxRange: 20, MinRange: 0.3}

// newCamera returns the default 640x480 depth camera upsampled from a 64x48
// ray grid.
func newCamera(t *testing.T) *sensors.DepthCamera {
	t.Helper()
	cam, err := sensors.NewDepthCamera(sensors.DefaultIntrinsics(), 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func captureWallCloud(t *testing.T) (*Cloud, sensors.CameraIntrinsics) {
	t.Helper()
	w := env.New("wall", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30)), 1)
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(10, -20, 0), geom.V3(11, 20, 20)), "wall")
	cam := newCamera(t)
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 3.0)
	return FromDepthImage(img, cam.Intrinsics(), wallOptions), cam.Intrinsics()
}

func TestFromDepthImageProjectsWall(t *testing.T) {
	cloud, _ := captureWallCloud(t)
	if cloud.Len() == 0 {
		t.Fatal("empty cloud")
	}
	if cloud.Origin != geom.V3(0, 0, 5) {
		t.Errorf("origin = %v", cloud.Origin)
	}
	if cloud.Timestamp != 3.0 {
		t.Errorf("timestamp = %v", cloud.Timestamp)
	}
	// Points hitting the wall should be near x = 10.
	wallPoints := 0
	for _, p := range cloud.Points {
		if p.X > 9 && p.X < 11.5 {
			wallPoints++
		}
	}
	if wallPoints == 0 {
		t.Error("no points landed on the wall")
	}
	b, ok := cloud.Bounds()
	if !ok {
		t.Fatal("Bounds on non-empty cloud should succeed")
	}
	if b.Max.X > 30 {
		t.Errorf("points beyond sensor range: %v", b)
	}
}

func TestFromDepthImageRangeFilters(t *testing.T) {
	w := env.New("near", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30)), 1)
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(0.1, -20, 0), geom.V3(0.2, 20, 20)), "near-wall")
	cam := newCamera(t)
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 0)

	opts := wallOptions
	opts.MinRange = 1.0
	cloud := FromDepthImage(img, cam.Intrinsics(), opts)
	for _, p := range cloud.Points {
		if p.Dist(geom.V3(0, 0, 5)) < 1.0-1e-9 {
			t.Fatalf("point %v closer than MinRange", p)
		}
	}
}

func TestStrideReducesPointCount(t *testing.T) {
	w := env.New("wall", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30)), 1)
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(10, -20, 0), geom.V3(11, 20, 20)), "wall")
	cam := newCamera(t)
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 0)

	dense := FromDepthImage(img, cam.Intrinsics(), Options{Stride: 4, MaxRange: 20})
	sparse := FromDepthImage(img, cam.Intrinsics(), Options{Stride: 16, MaxRange: 20})
	if sparse.Len() >= dense.Len() {
		t.Errorf("stride 16 (%d points) should give fewer points than stride 4 (%d)", sparse.Len(), dense.Len())
	}
	// Stride < 1 is clamped.
	clamped := FromDepthImage(img, cam.Intrinsics(), Options{Stride: 0, MaxRange: 20})
	if clamped.Len() == 0 {
		t.Error("clamped stride should still produce points")
	}
}

func TestVoxelFilter(t *testing.T) {
	c := &Cloud{Origin: geom.V3(0, 0, 0)}
	// 100 points all inside one 1 m voxel plus one point far away.
	for i := 0; i < 100; i++ {
		c.Points = append(c.Points, geom.V3(0.1+float64(i)*0.001, 0.2, 0.3))
	}
	c.Points = append(c.Points, geom.V3(10, 10, 10))

	f := VoxelFilter(c, 1.0)
	if f.Len() != 2 {
		t.Fatalf("filtered size = %d, want 2", f.Len())
	}
	// The centroid of the dense cluster stays inside the cluster's extent.
	found := false
	for _, p := range f.Points {
		if p.X < 1 && math.Abs(p.Y-0.2) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Error("cluster centroid missing from filtered cloud")
	}
	// Zero voxel size: pass-through copy.
	pass := VoxelFilter(c, 0)
	if pass.Len() != c.Len() {
		t.Errorf("zero-voxel filter should copy all points, got %d", pass.Len())
	}
	// Empty cloud.
	empty := VoxelFilter(&Cloud{}, 0.5)
	if empty.Len() != 0 {
		t.Error("filtering an empty cloud should stay empty")
	}
}

func TestVoxelFilterNeverIncreasesCountProperty(t *testing.T) {
	f := func(coords []float64, voxelSeed uint8) bool {
		c := &Cloud{}
		for i := 0; i+2 < len(coords); i += 3 {
			p := geom.V3(math.Mod(coords[i], 50), math.Mod(coords[i+1], 50), math.Mod(coords[i+2], 50))
			if !p.IsFinite() {
				continue
			}
			c.Points = append(c.Points, p)
		}
		voxel := 0.1 + float64(voxelSeed%50)/10
		out := VoxelFilter(c, voxel)
		return out.Len() <= c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTransform(t *testing.T) {
	c := &Cloud{Origin: geom.V3(1, 1, 1), Points: []geom.Vec3{geom.V3(2, 2, 2)}, Timestamp: 5}
	out := Transform(c, geom.V3(10, 0, 0))
	if out.Origin != geom.V3(11, 1, 1) {
		t.Errorf("origin = %v", out.Origin)
	}
	if out.Points[0] != geom.V3(12, 2, 2) {
		t.Errorf("point = %v", out.Points[0])
	}
	if out.Timestamp != 5 {
		t.Errorf("timestamp = %v", out.Timestamp)
	}
	// Original unchanged.
	if c.Points[0] != geom.V3(2, 2, 2) {
		t.Error("Transform mutated the input")
	}
}

func TestMerge(t *testing.T) {
	a := &Cloud{Origin: geom.V3(1, 0, 0), Points: []geom.Vec3{geom.V3(1, 1, 1)}, Timestamp: 1}
	b := &Cloud{Origin: geom.V3(2, 0, 0), Points: []geom.Vec3{geom.V3(2, 2, 2), geom.V3(3, 3, 3)}}
	m := Merge(a, nil, b)
	if m.Len() != 3 {
		t.Errorf("merged size = %d", m.Len())
	}
	if m.Origin != a.Origin || m.Timestamp != 1 {
		t.Error("merge should keep the first cloud's origin and timestamp")
	}
	empty := Merge()
	if empty.Len() != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestBoundsEmpty(t *testing.T) {
	if _, ok := (&Cloud{}).Bounds(); ok {
		t.Error("empty cloud should have no bounds")
	}
}
