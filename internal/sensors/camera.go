// Package sensors simulates the MAV's sensor suite.
//
// MAVBench equips its AirSim vehicle with an RGB-D camera, an IMU and GPS;
// the reliability case study additionally injects Gaussian noise into the
// depth channel. With no renderer available, this package synthesises the
// same sensor products geometrically: depth images are produced by ray
// casting against the environment, "RGB" frames are lists of visible target
// objects with their projected bounding boxes (exactly the information the
// detection and tracking kernel emulations consume), and the IMU/GPS models
// add configurable bias and noise to ground truth.
package sensors

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mavbench/internal/env"
	"mavbench/internal/geom"
)

// CameraIntrinsics describes the pinhole camera model used for both the
// depth and the RGB channels.
type CameraIntrinsics struct {
	Width, Height int
	HorizontalFOV float64 // radians
	MaxRange      float64 // meters (depth channel)
}

// DefaultIntrinsics returns the 640x480, 90-degree, 20 m-range RGB-D camera
// the benchmark uses. 640x480 is the RGB frame; the closed-loop depth camera
// keeps the field of view and range but renders its own ray grid's size (see
// sim.New).
func DefaultIntrinsics() CameraIntrinsics {
	return CameraIntrinsics{Width: 640, Height: 480, HorizontalFOV: math.Pi / 2, MaxRange: 20}
}

// Validate reports whether the intrinsics are usable.
func (c CameraIntrinsics) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("sensors: non-positive image size %dx%d", c.Width, c.Height)
	}
	if !(c.HorizontalFOV > 0 && c.HorizontalFOV < math.Pi) {
		return fmt.Errorf("sensors: horizontal FOV %v out of (0, pi)", c.HorizontalFOV)
	}
	if vf := c.VerticalFOV(); !(vf > 0 && vf < math.Pi) {
		return fmt.Errorf("sensors: vertical FOV %v of a %dx%d image out of (0, pi)", vf, c.Width, c.Height)
	}
	if !(c.MaxRange > 0) {
		return errors.New("sensors: non-positive max range")
	}
	return nil
}

// VerticalFOV derives the vertical field of view from the aspect ratio.
func (c CameraIntrinsics) VerticalFOV() float64 {
	return c.HorizontalFOV * float64(c.Height) / float64(c.Width)
}

// Pixels returns the pixel count of a full frame.
func (c CameraIntrinsics) Pixels() int { return c.Width * c.Height }

// DepthImage is a row-major depth map in meters. Values of +Inf mean no
// return within range.
type DepthImage struct {
	Width, Height int
	Data          []float64
	Pose          geom.Pose // camera pose at capture time
	Timestamp     float64   // seconds of virtual time
}

// At returns the depth at pixel (u, v).
func (d *DepthImage) At(u, v int) float64 { return d.Data[v*d.Width+u] }

// MinDepth returns the smallest finite depth in the image and whether one
// exists.
func (d *DepthImage) MinDepth() (float64, bool) {
	best := math.Inf(1)
	for _, v := range d.Data {
		if v < best {
			best = v
		}
	}
	return best, !math.IsInf(best, 1)
}

// DepthCamera produces depth images by ray casting into the world. The ray
// grid is fixed at construction; the full image is produced by bilinear
// upsampling of the grid so that even large frames stay cheap to simulate
// while the geometric content is preserved.
//
// A DepthCamera is owned by one simulator and is not safe for concurrent
// use: Capture reuses internal scratch buffers, and Recycle feeds finished
// frames' pixel buffers back to the next Capture.
type DepthCamera struct {
	// Noise, when non-nil, perturbs each depth sample (reliability case
	// study).
	Noise *DepthNoise

	in     CameraIntrinsics
	rx, ry int

	// The ray directions vary only per column (azimuth) and per row (pitch),
	// so the trig is evaluated once per column and row instead of once per
	// ray — same calls, same arguments, bit-identical directions. Pitch
	// depends only on the geometry, so its table (cos, sin per row) is built
	// once; the azimuth table follows the pose's yaw and is refilled on every
	// cast.
	pitchTrig    []float64
	azCos, azSin []float64
	// Upsample coordinate tables: the bilinear sample position of each output
	// column (resp. row) is a pure function of (Width, rx) (resp. (Height,
	// ry)), so they are built once. The stored values are the exact ones the
	// per-pixel loop would compute.
	uIdx, vIdx   []int32
	uFrac, vFrac []float64

	// Last-capture cache. The per-ray distances are a pure function of the
	// geometry, the pose and the world's obstacles, so they are keyed on the
	// world pointer, its geometry version and the exact pose; any geometry
	// change or motion invalidates them. They are reused with or without
	// noise: noise is drawn per ray from the cached distances, in the same
	// order as from fresh ones. When the MAV hovers (e.g. during planning
	// stalls) successive captures repeat the key. pixels holds the finished
	// noise-free frame for the key when pixelsValid; a noise-free hit copies
	// it, and a noisy capture never uses it.
	lastWorld   *env.World
	lastVersion uint64
	lastPose    geom.Pose
	dist        []float64 // per ray; +Inf for no return within MaxRange
	pixels      []float64
	pixelsValid bool
	// noisy is the scratch ray grid of a noisy capture.
	noisy []float64
	// free holds pixel buffers returned through Recycle, reused by the next
	// Capture instead of allocating a fresh frame. Every element of a reused
	// buffer is overwritten before the image is returned, so no depth values
	// can leak between frames.
	free [][]float64
}

// NewDepthCamera returns a camera with the given intrinsics that casts an
// rx × ry grid of rays. The image is at least 2×2 pixels and the grid at
// least 2×2 rays, so that both span the field of view.
func NewDepthCamera(in CameraIntrinsics, rx, ry int) (*DepthCamera, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Width < 2 || in.Height < 2 {
		return nil, fmt.Errorf("sensors: depth image %dx%d is smaller than 2x2", in.Width, in.Height)
	}
	if rx < 2 || ry < 2 {
		return nil, fmt.Errorf("sensors: depth ray grid %dx%d is smaller than 2x2", rx, ry)
	}
	c := &DepthCamera{
		in: in, rx: rx, ry: ry,
		pitchTrig: make([]float64, 2*ry),
		azCos:     make([]float64, rx),
		azSin:     make([]float64, rx),
		uIdx:      make([]int32, in.Width),
		uFrac:     make([]float64, in.Width),
		vIdx:      make([]int32, in.Height),
		vFrac:     make([]float64, in.Height),
	}
	vf := in.VerticalFOV()
	for j := 0; j < ry; j++ {
		pitch := vf * (float64(j)/float64(ry-1) - 0.5)
		c.pitchTrig[2*j] = math.Cos(pitch)
		c.pitchTrig[2*j+1] = math.Sin(pitch)
	}
	for u := 0; u < in.Width; u++ {
		gi := float64(u) / float64(in.Width-1) * float64(rx-1)
		i0 := int(gi)
		if i0 >= rx-1 {
			i0 = rx - 2
		}
		c.uIdx[u], c.uFrac[u] = int32(i0), gi-float64(i0)
	}
	for v := 0; v < in.Height; v++ {
		gj := float64(v) / float64(in.Height-1) * float64(ry-1)
		j0 := int(gj)
		if j0 >= ry-1 {
			j0 = ry - 2
		}
		c.vIdx[v], c.vFrac[v] = int32(j0), gj-float64(j0)
	}
	return c, nil
}

// Intrinsics returns the camera's intrinsics.
func (c *DepthCamera) Intrinsics() CameraIntrinsics { return c.in }

// DepthNoise is zero-mean Gaussian noise applied to each depth return,
// mirroring the paper's Table II study (std 0 to 1.5 m).
type DepthNoise struct {
	StdDevM float64
	rng     *rand.Rand
}

// NewDepthNoise creates a noise source with the given standard deviation.
func NewDepthNoise(stdDevM float64, seed int64) *DepthNoise {
	return &DepthNoise{StdDevM: stdDevM, rng: rand.New(rand.NewSource(seed))}
}

// Perturb returns the noisy version of a true depth value.
func (n *DepthNoise) Perturb(d float64) float64 {
	if n == nil || n.StdDevM <= 0 || math.IsInf(d, 1) {
		return d
	}
	out := d + n.rng.NormFloat64()*n.StdDevM
	if out < 0.05 {
		out = 0.05
	}
	return out
}

// Capture renders a depth image of the world from the given camera pose. The
// camera looks along the pose's heading with zero pitch, matching the
// front-facing RGB-D configuration of the benchmark.
func (c *DepthCamera) Capture(w *env.World, pose geom.Pose, timestamp float64) *DepthImage {
	img := &DepthImage{Width: c.in.Width, Height: c.in.Height, Data: c.pixelBuffer(c.in.Pixels()), Pose: pose, Timestamp: timestamp}
	noisy := c.Noise != nil && c.Noise.StdDevM > 0
	if c.lastWorld != w || c.lastVersion != w.Version() || c.lastPose != pose {
		if c.dist == nil {
			// Allocated on first use: a camera whose topic nobody
			// subscribes to never captures.
			c.dist, c.pixels = make([]float64, c.rx*c.ry), make([]float64, c.in.Pixels())
		}
		c.cast(w, pose)
		c.lastWorld, c.lastVersion, c.lastPose, c.pixelsValid = w, w.Version(), pose, false
	} else if !noisy && c.pixelsValid {
		copy(img.Data, c.pixels)
		return img
	}
	grid := c.dist
	if noisy {
		if c.noisy == nil {
			c.noisy = make([]float64, len(c.dist))
		}
		grid = c.noisy
		for k, d := range c.dist {
			grid[k] = c.Noise.Perturb(d)
		}
	}
	c.upsample(grid, img.Data)
	if !noisy {
		copy(c.pixels, img.Data)
		c.pixelsValid = true
	}
	return img
}

// cast fills c.dist with the distance of every ray from pose, +Inf where
// nothing is hit within MaxRange.
func (c *DepthCamera) cast(w *env.World, pose geom.Pose) {
	rx, ry := c.rx, c.ry
	hf := c.in.HorizontalFOV
	for i := 0; i < rx; i++ {
		az := hf * (float64(i)/float64(rx-1) - 0.5)
		c.azCos[i] = math.Cos(pose.Yaw + az)
		c.azSin[i] = math.Sin(pose.Yaw + az)
	}
	for j := 0; j < ry; j++ {
		cosPitch, sinPitch := c.pitchTrig[2*j], c.pitchTrig[2*j+1]
		for i := 0; i < rx; i++ {
			dir := geom.Vec3{
				X: c.azCos[i] * cosPitch,
				Y: c.azSin[i] * cosPitch,
				Z: -sinPitch,
			}
			dist := math.Inf(1)
			if d := dir.Unit(); !d.IsZero() {
				dist = w.Cast(pose.Position, d, c.in.MaxRange)
			}
			if dist > c.in.MaxRange {
				dist = math.Inf(1)
			}
			c.dist[j*rx+i] = dist
		}
	}
}

// upsample fills the frame out with the bilinear upsampling of the ray grid.
func (c *DepthCamera) upsample(grid, out []float64) {
	rx, width := c.rx, c.in.Width
	for v := 0; v < c.in.Height; v++ {
		j0 := int(c.vIdx[v])
		fj := c.vFrac[v]
		for u := 0; u < width; u++ {
			i0 := int(c.uIdx[u])
			fi := c.uFrac[u]
			d00 := grid[j0*rx+i0]
			d01 := grid[j0*rx+i0+1]
			d10 := grid[(j0+1)*rx+i0]
			d11 := grid[(j0+1)*rx+i0+1]
			var d float64
			if math.IsInf(d00, 1) || math.IsInf(d01, 1) || math.IsInf(d10, 1) || math.IsInf(d11, 1) {
				// Don't interpolate across a no-return boundary; take nearest.
				d = nearest(fi, fj, d00, d01, d10, d11)
			} else {
				d = d00*(1-fi)*(1-fj) + d01*fi*(1-fj) + d10*(1-fi)*fj + d11*fi*fj
			}
			out[v*width+u] = d
		}
	}
}

// pixelBuffer returns a pixel buffer of length n, reusing a recycled frame's
// buffer when one of sufficient capacity is available.
func (c *DepthCamera) pixelBuffer(n int) []float64 {
	for i := len(c.free) - 1; i >= 0; i-- {
		buf := c.free[i]
		c.free[i] = nil
		c.free = c.free[:i]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// Recycle hands a finished frame's pixel buffer back to the camera for reuse
// by a later Capture. Callers must not touch the image (or any alias of its
// Data) afterwards. Recycling is optional: frames that are dropped without
// being recycled are simply collected by the GC.
func (c *DepthCamera) Recycle(img *DepthImage) {
	if img == nil || img.Data == nil {
		return
	}
	// Bound the free list so a burst of unrecycled frames can't grow it.
	if len(c.free) < 4 {
		c.free = append(c.free, img.Data)
	}
	img.Data = nil
}

func nearest(fi, fj float64, d00, d01, d10, d11 float64) float64 {
	if fi < 0.5 {
		if fj < 0.5 {
			return d00
		}
		return d10
	}
	if fj < 0.5 {
		return d01
	}
	return d11
}

// BoundingBox is an axis-aligned box in image coordinates (pixels).
type BoundingBox struct {
	MinU, MinV, MaxU, MaxV float64
	Label                  string
	Distance               float64 // meters from the camera
}

// Center returns the box center in pixels.
func (b BoundingBox) Center() geom.Vec2 {
	return geom.V2((b.MinU+b.MaxU)/2, (b.MinV+b.MaxV)/2)
}

// Area returns the box area in square pixels.
func (b BoundingBox) Area() float64 {
	w := b.MaxU - b.MinU
	h := b.MaxV - b.MinV
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Frame is the simulated "RGB image": the set of semantic target objects that
// are inside the camera frustum and not occluded, with their projected
// bounding boxes. Detection and tracking kernels consume frames.
type Frame struct {
	Intrinsics CameraIntrinsics
	Pose       geom.Pose
	Timestamp  float64
	Objects    []BoundingBox
}

// RGBCamera projects the world's semantic targets into the image plane.
type RGBCamera struct {
	Intrinsics CameraIntrinsics
}

// NewRGBCamera returns an RGB camera with default intrinsics.
func NewRGBCamera() *RGBCamera {
	return &RGBCamera{Intrinsics: DefaultIntrinsics()}
}

// Capture lists the visible targets from the given pose. A target is visible
// when its center lies within the camera frustum, within MaxRange (times
// rangeFactor for RGB which sees farther than depth), and the straight line
// to it is not blocked by a structure.
func (c *RGBCamera) Capture(w *env.World, pose geom.Pose, timestamp float64) *Frame {
	in := c.Intrinsics
	f := &Frame{Intrinsics: in, Pose: pose, Timestamp: timestamp}
	const rgbRangeFactor = 2.5
	maxRange := in.MaxRange * rgbRangeFactor
	halfH := in.HorizontalFOV / 2
	halfV := in.VerticalFOV() / 2

	for _, o := range w.Targets() {
		center := o.Center()
		body := pose.ToBody(center)
		if body.X <= 0.1 {
			continue // behind the camera
		}
		dist := body.Norm()
		if dist > maxRange {
			continue
		}
		az := math.Atan2(body.Y, body.X)
		el := math.Atan2(body.Z, body.X)
		if math.Abs(az) > halfH || math.Abs(el) > halfV {
			continue
		}
		// Occlusion: cast a ray and require that nothing is hit meaningfully
		// closer than the target itself.
		dir := center.Sub(pose.Position)
		if hitDist, hit := w.RayCast(pose.Position, dir, dist-0.3); hit && hitDist < dist-0.5 {
			continue
		}

		// Project the object's extent into pixels with a pinhole model.
		size := o.Box.Size()
		focal := float64(in.Width) / (2 * math.Tan(halfH))
		pxW := size.Horiz().Norm() / dist * focal
		pxH := size.Z / dist * focal
		cu := float64(in.Width)/2 - az/halfH*float64(in.Width)/2
		cv := float64(in.Height)/2 - el/halfV*float64(in.Height)/2
		box := BoundingBox{
			MinU:     geom.Clamp(cu-pxW/2, 0, float64(in.Width)),
			MaxU:     geom.Clamp(cu+pxW/2, 0, float64(in.Width)),
			MinV:     geom.Clamp(cv-pxH/2, 0, float64(in.Height)),
			MaxV:     geom.Clamp(cv+pxH/2, 0, float64(in.Height)),
			Label:    o.Label,
			Distance: dist,
		}
		if box.Area() > 0 {
			f.Objects = append(f.Objects, box)
		}
	}
	return f
}
