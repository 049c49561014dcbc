package sensors

import (
	"testing"

	"mavbench/internal/env"
	"mavbench/internal/geom"
)

// closedLoopCamera returns the simulator's depth camera: a 48x36 ray grid
// rendered into a 48x36 image with the default field of view and range.
func closedLoopCamera(t testing.TB) *DepthCamera {
	t.Helper()
	in := DefaultIntrinsics()
	in.Width, in.Height = 48, 36
	cam, err := NewDepthCamera(in, 48, 36)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

// TestDepthCameraCaptureAllocs pins the steady-state allocation count of the
// depth-camera hot path: with the frame's pixel buffer recycled after use,
// Capture must not allocate a fresh ray grid or pixel buffer per frame (the
// image header itself is the only per-frame allocation). It holds for a
// hover (the cached frame is copied) and for a moving camera (every ray is
// cast), with and without depth noise.
func TestDepthCameraCaptureAllocs(t *testing.T) {
	w := wallWorld()
	poses := []geom.Pose{geom.NewPose(geom.V3(0, 0, 5), 0), geom.NewPose(geom.V3(1, 0, 5), 0.2)}
	for _, tc := range []struct {
		name  string
		noisy bool
		moves bool
	}{{"hover", false, false}, {"noisy hover", true, false}, {"moving", false, true}, {"noisy moving", true, true}} {
		cam := rgbdCamera(t)
		if tc.noisy {
			cam.Noise = NewDepthNoise(0.5, 1)
		}
		// Warm up the scratch and free-list buffers.
		for _, pose := range poses {
			cam.Recycle(cam.Capture(w, pose, 0))
		}
		frame := 0
		allocs := testing.AllocsPerRun(20, func() {
			pose := poses[0]
			if tc.moves {
				pose = poses[frame%2]
			}
			frame++
			cam.Recycle(cam.Capture(w, pose, 1.0))
		})
		if allocs > 1 {
			t.Errorf("%s: Capture+Recycle allocates %.0f objects per frame, want <= 1 (the image header)", tc.name, allocs)
		}
	}
}

// TestDepthCameraRecycleBitIdentical verifies that buffer reuse cannot leak
// depth values between frames: a camera whose frames are recycled produces
// images bit-identical to a fresh camera's.
func TestDepthCameraRecycleBitIdentical(t *testing.T) {
	w := wallWorld()
	poses := []geom.Pose{
		geom.NewPose(geom.V3(0, 0, 5), 0),
		geom.NewPose(geom.V3(-5, 3, 8), 1.1),
		geom.NewPose(geom.V3(4, -6, 2), -2.3),
	}

	recycled := rgbdCamera(t)
	for i, pose := range poses {
		got := recycled.Capture(w, pose, float64(i))
		want := rgbdCamera(t).Capture(w, pose, float64(i))
		if got.Width != want.Width || got.Height != want.Height {
			t.Fatalf("pose %d: size %dx%d != %dx%d", i, got.Width, got.Height, want.Width, want.Height)
		}
		for p := range want.Data {
			if got.Data[p] != want.Data[p] {
				t.Fatalf("pose %d: pixel %d = %v, want %v", i, p, got.Data[p], want.Data[p])
			}
		}
		recycled.Recycle(got)
	}

	// Recycling must survive buffers of mismatched size: a buffer too small
	// for the frame is skipped, and a larger one is served cut to size.
	small := closedLoopCamera(t)
	small.Recycle(&DepthImage{Data: make([]float64, 1)})
	small.Recycle(rgbdCamera(t).Capture(w, poses[0], 0))
	img := small.Capture(w, poses[1], 1)
	ref := closedLoopCamera(t).Capture(w, poses[1], 1)
	if len(img.Data) != len(ref.Data) {
		t.Fatalf("reused buffer holds %d pixels, want %d", len(img.Data), len(ref.Data))
	}
	for p := range ref.Data {
		if img.Data[p] != ref.Data[p] {
			t.Fatalf("reused-buffer pixel %d = %v, want %v", p, img.Data[p], ref.Data[p])
		}
	}
}

// BenchmarkDepthCapture times one closed-loop depth frame (48x36 rays into
// a 48x36 image, recycled after use) over the default urban world at the
// benchmark's 0.35 world scale. "miss" alternates between two poses, so
// every capture casts every ray; "hover" repeats one pose, so every capture
// after the first is served by the last-capture cache: a copy without
// noise, fresh noise over the cached distances with it.
func BenchmarkDepthCapture(b *testing.B) {
	w, err := env.BuildFamilyWorld("urban", 1234, 0.35, env.DefaultKnobs())
	if err != nil {
		b.Fatal(err)
	}
	// Two free points at a cruise altitude of 6 m, facing different ways.
	var poses []geom.Pose
	for len(poses) < 2 {
		p := w.SamplePoint()
		p.Z = 6
		if !w.Occupied(p, 0.4) {
			poses = append(poses, geom.NewPose(p, float64(len(poses))))
		}
	}
	for _, mode := range []string{"miss", "hover"} {
		for _, noise := range []string{"off", "on"} {
			b.Run(mode+"/noise_"+noise, func(b *testing.B) {
				cam := closedLoopCamera(b)
				if noise == "on" {
					cam.Noise = NewDepthNoise(0.5, 1)
				}
				cam.Recycle(cam.Capture(w, poses[1], 0))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pose := poses[0]
					if mode == "miss" {
						pose = poses[i%2]
					}
					cam.Recycle(cam.Capture(w, pose, 0))
				}
			})
		}
	}
}
