package sensors

import (
	"math"
	"testing"

	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
)

func TestIntrinsicsValidate(t *testing.T) {
	if err := DefaultIntrinsics().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultIntrinsics()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width should be invalid")
	}
	bad = DefaultIntrinsics()
	bad.HorizontalFOV = 4
	if err := bad.Validate(); err == nil {
		t.Error("FOV >= pi should be invalid")
	}
	bad = DefaultIntrinsics()
	bad.MaxRange = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero range should be invalid")
	}
	// A tall image at a wide horizontal FOV derives a vertical FOV of
	// 1.5 × 100/36 ≈ 4.17 rad: its top and bottom rows would look behind
	// the camera.
	bad = CameraIntrinsics{Width: 36, Height: 100, HorizontalFOV: 1.5, MaxRange: 20}
	if err := bad.Validate(); err == nil {
		t.Errorf("vertical FOV %v >= pi should be invalid", bad.VerticalFOV())
	}
	bad = DefaultIntrinsics()
	bad.HorizontalFOV = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN FOV should be invalid")
	}
	bad = DefaultIntrinsics()
	bad.MaxRange = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN range should be invalid")
	}
	in := DefaultIntrinsics()
	if in.Pixels() != 640*480 {
		t.Errorf("Pixels = %d", in.Pixels())
	}
	if in.VerticalFOV() >= in.HorizontalFOV {
		t.Error("vertical FOV should be smaller than horizontal for a wide image")
	}
}

// rgbdCamera returns the default 640x480 camera upsampled from a 64x48 ray
// grid.
func rgbdCamera(t testing.TB) *DepthCamera {
	t.Helper()
	cam, err := NewDepthCamera(DefaultIntrinsics(), 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func TestNewDepthCameraRejectsGeometry(t *testing.T) {
	in := DefaultIntrinsics()
	tiny := in
	tiny.Width, tiny.Height = 1, 1
	tall := CameraIntrinsics{Width: 36, Height: 100, HorizontalFOV: 1.5, MaxRange: 20}
	for _, tc := range []struct {
		name   string
		in     CameraIntrinsics
		rx, ry int
	}{
		{"one ray column", in, 1, 48},
		{"one ray row", in, 64, 1},
		{"no rays", in, 0, 0},
		{"one-pixel image", tiny, 64, 48},
		{"vertical FOV beyond pi", tall, 36, 100},
	} {
		if cam, err := NewDepthCamera(tc.in, tc.rx, tc.ry); err == nil {
			t.Errorf("%s: NewDepthCamera(%dx%d px, %dx%d rays) = %p, want an error", tc.name, tc.in.Width, tc.in.Height, tc.rx, tc.ry, cam)
		}
	}
	cam := rgbdCamera(t)
	if cam.Intrinsics() != in {
		t.Errorf("Intrinsics() = %+v, want %+v", cam.Intrinsics(), in)
	}
}

func wallWorld() *env.World {
	w := env.New("wall", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30)), 1)
	// A wall 10 m in front of the origin along +X.
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(10, -20, 0), geom.V3(11, 20, 20)), "wall")
	return w
}

func TestDepthCameraSeesWall(t *testing.T) {
	w := wallWorld()
	cam := rgbdCamera(t)
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 1.0)

	if img.Width != 640 || img.Height != 480 {
		t.Fatalf("image size %dx%d", img.Width, img.Height)
	}
	// The pixel at the image center looks straight ahead: depth ~10 m.
	center := img.At(img.Width/2, img.Height/2)
	if math.Abs(center-10) > 0.5 {
		t.Errorf("center depth = %v, want ~10", center)
	}
	// The closest return is either the wall (10 m) or the ground seen by the
	// downward-pitched bottom rows (~9 m from 5 m altitude).
	minD, ok := img.MinDepth()
	if !ok || minD < 8.5 || minD > 20 {
		t.Errorf("min depth = %v ok=%v", minD, ok)
	}
	if img.Timestamp != 1.0 {
		t.Errorf("timestamp = %v", img.Timestamp)
	}
}

func TestDepthCameraLookingAwaySeesNothing(t *testing.T) {
	w := wallWorld()
	cam := rgbdCamera(t)
	// Face away from the wall at high altitude so neither wall nor ground is
	// within the 20 m range for the central rays.
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 25), math.Pi), 0)
	center := img.At(img.Width/2, img.Height/2)
	if !math.IsInf(center, 1) {
		t.Errorf("center depth = %v, want +Inf (no return)", center)
	}
}

func TestDepthCameraSeesGround(t *testing.T) {
	w := env.BoundedEmptyWorld(100, 50, 1)
	cam := rgbdCamera(t)
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 0)
	// Bottom rows look downward and should return the ground within range.
	bottom := img.At(img.Width/2, img.Height-1)
	if math.IsInf(bottom, 1) {
		t.Error("bottom of frame should see the ground")
	}
	if bottom < 5 {
		t.Errorf("ground return %v closer than altitude", bottom)
	}
}

func TestDepthNoise(t *testing.T) {
	w := wallWorld()
	cam := rgbdCamera(t)
	cam.Noise = NewDepthNoise(1.0, 7)
	img := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 0)

	// Compare against a clean capture: the center depths should differ for a
	// meaningful fraction of pixels.
	clean := rgbdCamera(t).Capture(w, geom.NewPose(geom.V3(0, 0, 5), 0), 0)
	diffs := 0
	for i := range img.Data {
		if math.IsInf(clean.Data[i], 1) {
			continue
		}
		if math.Abs(img.Data[i]-clean.Data[i]) > 0.05 {
			diffs++
		}
	}
	if diffs == 0 {
		t.Error("noise had no visible effect")
	}
	for _, d := range img.Data {
		if !math.IsInf(d, 1) && d < 0.05-1e-12 {
			t.Fatalf("noisy depth %v below floor", d)
		}
	}
}

func TestDepthNoiseNilAndZero(t *testing.T) {
	var n *DepthNoise
	if n.Perturb(5) != 5 {
		t.Error("nil noise should be identity")
	}
	z := NewDepthNoise(0, 1)
	if z.Perturb(5) != 5 {
		t.Error("zero-std noise should be identity")
	}
	if !math.IsInf(NewDepthNoise(1, 1).Perturb(math.Inf(1)), 1) {
		t.Error("no-return values should stay +Inf")
	}
}

func personWorld() (*env.World, *env.Obstacle) {
	w := env.New("people", geom.NewAABB(geom.V3(-50, -50, 0), geom.V3(50, 50, 30)), 1)
	p := w.AddObstacle(env.KindPerson, geom.BoxAt(geom.V3(12, 0, 0.9), geom.V3(0.5, 0.5, 1.8)), "person")
	return w, p
}

func TestRGBCameraSeesPerson(t *testing.T) {
	w, _ := personWorld()
	cam := NewRGBCamera()
	f := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 1.5), 0), 2.0)
	if len(f.Objects) != 1 {
		t.Fatalf("visible objects = %d, want 1", len(f.Objects))
	}
	box := f.Objects[0]
	if box.Label != "person" {
		t.Errorf("label = %q", box.Label)
	}
	// Roughly centered horizontally.
	c := box.Center()
	if math.Abs(c.X-320) > 60 {
		t.Errorf("box center u = %v, want ~320", c.X)
	}
	if box.Area() <= 0 {
		t.Error("box area should be positive")
	}
	if math.Abs(box.Distance-12) > 1.5 {
		t.Errorf("distance = %v, want ~12", box.Distance)
	}
}

func TestRGBCameraRespectsFrustumAndOcclusion(t *testing.T) {
	w, person := personWorld()
	cam := NewRGBCamera()

	// Behind the camera.
	f := cam.Capture(w, geom.NewPose(geom.V3(0, 0, 1.5), math.Pi), 0)
	if len(f.Objects) != 0 {
		t.Error("person behind the camera should not be visible")
	}

	// Too far away.
	w.MoveObstacle(person, geom.BoxAt(geom.V3(200, 0, 0.9), geom.V3(0.5, 0.5, 1.8)))
	f = cam.Capture(w, geom.NewPose(geom.V3(0, 0, 1.5), 0), 0)
	if len(f.Objects) != 0 {
		t.Error("person beyond range should not be visible")
	}

	// Occluded by a wall.
	w.MoveObstacle(person, geom.BoxAt(geom.V3(12, 0, 0.9), geom.V3(0.5, 0.5, 1.8)))
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(6, -5, 0), geom.V3(7, 5, 10)), "wall")
	f = cam.Capture(w, geom.NewPose(geom.V3(0, 0, 1.5), 0), 0)
	if len(f.Objects) != 0 {
		t.Error("occluded person should not be visible")
	}
}

func TestBoundingBoxHelpers(t *testing.T) {
	b := BoundingBox{MinU: 10, MinV: 20, MaxU: 30, MaxV: 60}
	if b.Center() != geom.V2(20, 40) {
		t.Errorf("Center = %v", b.Center())
	}
	if b.Area() != 20*40 {
		t.Errorf("Area = %v", b.Area())
	}
	if (BoundingBox{MinU: 5, MaxU: 5, MinV: 0, MaxV: 10}).Area() != 0 {
		t.Error("degenerate box should have zero area")
	}
}

func TestIMUSample(t *testing.T) {
	imu := NewIMU(3)
	state := physics.State{
		Position:     geom.V3(0, 0, 5),
		Velocity:     geom.V3(1, 0, 0),
		Acceleration: geom.V3(0.5, 0, 0),
		Yaw:          0,
	}
	r1 := imu.Sample(state, 0.01, 0.01)
	if math.Abs(r1.AccelBody.X-0.5) > 0.3 {
		t.Errorf("accel X = %v, want ~0.5", r1.AccelBody.X)
	}
	// Rotate the vehicle: yaw rate should be visible.
	state.Yaw = 0.1
	r2 := imu.Sample(state, 0.01, 0.02)
	if r2.YawRate < 5 {
		t.Errorf("yaw rate = %v, want ~10 rad/s for 0.1 rad in 10 ms", r2.YawRate)
	}
	if r2.Timestamp != 0.02 {
		t.Errorf("timestamp = %v", r2.Timestamp)
	}
}

func TestGPSNominalAndDegraded(t *testing.T) {
	open := env.BoundedEmptyWorld(100, 50, 1)
	gps := NewGPS(5)
	truth := geom.V3(10, 10, 5)

	var worstOpen float64
	for i := 0; i < 50; i++ {
		fix := gps.Sample(open, truth, float64(i))
		if fix.Degraded {
			t.Fatal("open-sky fix should not be degraded")
		}
		if fix.NumSatellites < 8 {
			t.Fatal("open-sky fix should see many satellites")
		}
		if e := fix.Position.HorizDist(truth); e > worstOpen {
			worstOpen = e
		}
	}

	// Surround the position with a tall structure: fixes degrade.
	urban := env.New("canyon", geom.NewAABB(geom.V3(-100, -100, 0), geom.V3(100, 100, 60)), 1)
	urban.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(12, 5, 0), geom.V3(20, 15, 40)), "tower")
	gpsUrban := NewGPS(5)
	degradedSeen := false
	var worstUrban float64
	for i := 0; i < 50; i++ {
		fix := gpsUrban.Sample(urban, truth, float64(i))
		if fix.Degraded {
			degradedSeen = true
		}
		if e := fix.Position.HorizDist(truth); e > worstUrban {
			worstUrban = e
		}
	}
	if !degradedSeen {
		t.Error("fixes near a tall structure should be degraded")
	}
	if worstUrban <= worstOpen {
		t.Error("degraded fixes should be noisier than open-sky fixes")
	}
	// Nil world is allowed (no degradation possible).
	if fix := gps.Sample(nil, truth, 0); fix.Degraded {
		t.Error("nil world should never degrade")
	}
}

func TestDepthImageMinDepthEmpty(t *testing.T) {
	img := &DepthImage{Width: 2, Height: 1, Data: []float64{math.Inf(1), math.Inf(1)}}
	if _, ok := img.MinDepth(); ok {
		t.Error("all-Inf image should report no finite depth")
	}
}
