package sensors

import (
	"math"
	"testing"

	"mavbench/internal/env"
	"mavbench/internal/geom"
)

// referenceCapture renders the frame Capture must return, with no table and
// no cache: every ray's direction is computed from its own trig calls and
// cast through World.RayCast, noise (when non-nil) is drawn per ray in
// row-major order, and every pixel is interpolated from scratch.
func referenceCapture(in CameraIntrinsics, rx, ry int, noise *DepthNoise, w *env.World, pose geom.Pose) []float64 {
	grid := make([]float64, rx*ry)
	for j := 0; j < ry; j++ {
		pitch := in.VerticalFOV() * (float64(j)/float64(ry-1) - 0.5)
		for i := 0; i < rx; i++ {
			az := in.HorizontalFOV * (float64(i)/float64(rx-1) - 0.5)
			dir := geom.Vec3{
				X: math.Cos(pose.Yaw+az) * math.Cos(pitch),
				Y: math.Sin(pose.Yaw+az) * math.Cos(pitch),
				Z: -math.Sin(pitch),
			}
			grid[j*rx+i] = math.Inf(1)
			if d, hit := w.RayCast(pose.Position, dir, in.MaxRange); hit {
				grid[j*rx+i] = noise.Perturb(d)
			}
		}
	}
	out := make([]float64, in.Pixels())
	for v := 0; v < in.Height; v++ {
		gj := float64(v) / float64(in.Height-1) * float64(ry-1)
		j0 := min(int(gj), ry-2)
		fj := gj - float64(j0)
		for u := 0; u < in.Width; u++ {
			gi := float64(u) / float64(in.Width-1) * float64(rx-1)
			i0 := min(int(gi), rx-2)
			fi := gi - float64(i0)
			d00, d01 := grid[j0*rx+i0], grid[j0*rx+i0+1]
			d10, d11 := grid[(j0+1)*rx+i0], grid[(j0+1)*rx+i0+1]
			var d float64
			switch {
			case !math.IsInf(d00, 1) && !math.IsInf(d01, 1) && !math.IsInf(d10, 1) && !math.IsInf(d11, 1):
				d = d00*(1-fi)*(1-fj) + d01*fi*(1-fj) + d10*(1-fi)*fj + d11*fi*fj
			case fi < 0.5 && fj < 0.5:
				d = d00
			case fi < 0.5:
				d = d10
			case fj < 0.5:
				d = d01
			default:
				d = d11
			}
			out[v*in.Width+u] = d
		}
	}
	return out
}

// TestDepthCameraMatchesUncachedReference flies one camera through a
// scripted sequence of hovers, moving obstacles, a turn on the spot and a
// change of position, and requires every frame to be bit-equal to
// referenceCapture's. Noise runs on two identically seeded streams, one for
// the camera and one for the reference, so the camera must draw exactly the
// reference's noise on every frame, hovers included. The "toggled" run
// switches noise on and off between frames, so that a noise-free hover
// follows a noisy capture of a changed scene.
func TestDepthCameraMatchesUncachedReference(t *testing.T) {
	closedLoop := DefaultIntrinsics()
	closedLoop.Width, closedLoop.Height = 48, 36
	upsampled := DefaultIntrinsics()
	upsampled.Width, upsampled.Height = 160, 120
	for _, geo := range []struct {
		name   string
		in     CameraIntrinsics
		rx, ry int
	}{{"closed-loop 48x36", closedLoop, 48, 36}, {"64x48 rays into 160x120", upsampled, 64, 48}} {
		for _, run := range []string{"noise off", "noise 0.5 m", "toggled"} {
			w := wallWorld()
			// A car patrolling across the view and a crate that gets moved,
			// both in front of the wall.
			w.AddDynamicObstacle(geom.BoxAt(geom.V3(6, -4, 1), geom.V3(2, 1, 2)), geom.V3(6, -4, 1), geom.V3(6, 4, 1), 2, "car")
			crate := w.AddObstacle(env.KindStructure, geom.BoxAt(geom.V3(7, 2, 4), geom.V3(1, 1, 1)), "crate")
			hover := geom.NewPose(geom.V3(0, 0, 5), 0)
			turned := geom.NewPose(hover.Position, 0.3)
			moved := geom.NewPose(geom.V3(-2, 1, 5.5), 0.3)
			steps := []struct {
				name  string
				act   func()
				pose  geom.Pose
				fresh bool // the scene or pose differs from the last frame's
			}{
				{"first frame", nil, hover, true},
				{"hover", nil, hover, false},
				{"hover again", nil, hover, false},
				{"car patrols", func() { w.Step(0.5) }, hover, true},
				{"hover after patrol", nil, hover, false},
				{"crate moved", func() { w.MoveObstacle(crate, geom.BoxAt(geom.V3(7, -1, 3), geom.V3(1, 1, 1))) }, hover, true},
				{"hover after move", nil, hover, false},
				{"turn on the spot", nil, turned, true},
				{"hover after turn", nil, turned, false},
				{"change position", nil, moved, true},
				{"hover after change", nil, moved, false},
				{"car patrols again", func() { w.Step(0.5) }, moved, true},
				{"back to the start", nil, hover, true},
			}

			cam, err := NewDepthCamera(geo.in, geo.rx, geo.ry)
			if err != nil {
				t.Fatal(err)
			}
			camNoise, refNoise := NewDepthNoise(0.5, 11), NewDepthNoise(0.5, 11)
			var last []float64
			for k, step := range steps {
				if step.act != nil {
					step.act()
				}
				var noise *DepthNoise
				if run == "noise 0.5 m" || (run == "toggled" && k%2 == 1) {
					cam.Noise, noise = camNoise, refNoise
				} else {
					cam.Noise = nil
				}
				want := referenceCapture(geo.in, geo.rx, geo.ry, noise, w, step.pose)
				got := cam.Capture(w, step.pose, float64(k))
				if len(got.Data) != len(want) {
					t.Fatalf("%s, %s, %s: %d pixels, want %d", geo.name, run, step.name, len(got.Data), len(want))
				}
				differ := 0
				for p := range want {
					if math.Float64bits(got.Data[p]) != math.Float64bits(want[p]) {
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%s, %s, %s: %d of %d pixels differ from the uncached reference", geo.name, run, step.name, differ, len(want))
				}
				// A step that changes the scene or the pose must change the
				// noise-free frame, or the sequence would not tell a stale
				// cache from a fresh capture.
				if run == "noise off" && step.fresh && k > 0 && equalFrames(last, want) {
					t.Fatalf("%s: %q leaves the frame unchanged", geo.name, step.name)
				}
				last = want
				cam.Recycle(got)
			}
		}
	}
}

func equalFrames(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}
