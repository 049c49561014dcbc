// Package pointcloud converts depth images into 3-D point clouds and
// provides the filtering operations the perception pipeline applies before
// occupancy-map insertion.
//
// In MAVBench this corresponds to the "Point Cloud Generation" kernel of
// Table I (the ROS depth_image_proc-style node feeding OctoMap).
package pointcloud

import (
	"math"
	"sync"

	"mavbench/internal/geom"
	"mavbench/internal/sensors"
)

// Cloud is a set of 3-D points in the world frame together with the sensor
// origin they were observed from (needed for free-space ray carving during
// occupancy-map insertion).
type Cloud struct {
	Origin    geom.Vec3
	Points    []geom.Vec3
	Timestamp float64
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// pointsPool recycles point buffers between frames: the perception pipeline
// creates and discards two clouds (raw and voxel-filtered) per depth image,
// and recycling the backing arrays removes that steady-state allocation.
var pointsPool = sync.Pool{New: func() any { return new([]geom.Vec3) }}

// newPoints returns an empty points buffer with at least the given capacity,
// reusing a released buffer when possible. The buffer always has length 0 —
// stale points from a previous frame are never visible.
func newPoints(capacity int) []geom.Vec3 {
	b := *pointsPool.Get().(*[]geom.Vec3)
	if cap(b) < capacity {
		return make([]geom.Vec3, 0, capacity)
	}
	return b[:0]
}

// Release hands the cloud's point buffer back to the package for reuse and
// clears the cloud. Callers must not touch the cloud (or any alias of its
// Points) afterwards. Releasing is optional: clouds that are dropped without
// release are simply collected by the GC.
func (c *Cloud) Release() {
	if c == nil || c.Points == nil {
		return
	}
	pts := c.Points[:0]
	c.Points = nil
	pointsPool.Put(&pts)
}

// Bounds returns the axis-aligned bounding box of the cloud; ok is false for
// an empty cloud.
func (c *Cloud) Bounds() (geom.AABB, bool) {
	if len(c.Points) == 0 {
		return geom.AABB{}, false
	}
	b := geom.AABB{Min: c.Points[0], Max: c.Points[0]}
	for _, p := range c.Points[1:] {
		b = b.Union(geom.AABB{Min: p, Max: p})
	}
	return b, true
}

// Options controls depth-image back-projection.
type Options struct {
	// Stride subsamples the depth image: only every Stride-th pixel in each
	// direction is back-projected. The real pipeline decimates clouds the
	// same way before OctoMap insertion.
	Stride int
	// MaxRange discards returns beyond this distance (0 = keep all finite).
	MaxRange float64
	// MinRange discards returns closer than this (sensor self-returns).
	MinRange float64
}

// FromDepthImage back-projects a depth image into a world-frame point cloud
// using the camera intrinsics it was captured with.
func FromDepthImage(img *sensors.DepthImage, in sensors.CameraIntrinsics, opts Options) *Cloud {
	if opts.Stride < 1 {
		opts.Stride = 1
	}
	cloud := &Cloud{Origin: img.Pose.Position, Timestamp: img.Timestamp}
	if img.Width > 0 && img.Height > 0 {
		cloud.Points = newPoints((img.Width/opts.Stride + 1) * (img.Height/opts.Stride + 1))
	}
	hf := in.HorizontalFOV
	vf := in.VerticalFOV()
	for v := 0; v < img.Height; v += opts.Stride {
		pitch := vf * (float64(v)/float64(img.Height-1) - 0.5)
		for u := 0; u < img.Width; u += opts.Stride {
			d := img.At(u, v)
			if math.IsInf(d, 1) || math.IsNaN(d) {
				continue
			}
			if opts.MaxRange > 0 && d > opts.MaxRange {
				continue
			}
			if d < opts.MinRange {
				continue
			}
			az := hf * (float64(u)/float64(img.Width-1) - 0.5)
			dir := geom.Vec3{
				X: math.Cos(img.Pose.Yaw+az) * math.Cos(pitch),
				Y: math.Sin(img.Pose.Yaw+az) * math.Cos(pitch),
				Z: -math.Sin(pitch),
			}
			cloud.Points = append(cloud.Points, img.Pose.Position.Add(dir.Scale(d)))
		}
	}
	return cloud
}

// VoxelFilter returns a new cloud with at most one point per voxel of the
// given edge length (the centroid of the points that fell in the voxel).
// This mirrors the PCL voxel-grid downsampling step used before OctoMap
// insertion.
func VoxelFilter(c *Cloud, voxel float64) *Cloud {
	if voxel <= 0 || c.Len() == 0 {
		out := &Cloud{Origin: c.Origin, Timestamp: c.Timestamp}
		out.Points = append(out.Points, c.Points...)
		return out
	}
	s := voxelScratchPool.Get().(*voxelScratch)
	// Clear on get: a recycled scratch must never leak cells between frames.
	clear(s.cells)
	s.accs = s.accs[:0]
	for _, p := range c.Points {
		key := [3]int32{
			int32(math.Floor(p.X / voxel)),
			int32(math.Floor(p.Y / voxel)),
			int32(math.Floor(p.Z / voxel)),
		}
		i, ok := s.cells[key]
		if !ok {
			i = int32(len(s.accs))
			s.cells[key] = i
			s.accs = append(s.accs, voxelAcc{})
		}
		a := &s.accs[i]
		a.sum = a.sum.Add(p)
		a.n++
	}
	// accs is in first-appearance order, exactly the order the seed's
	// explicit key list preserved, so output point order is unchanged.
	out := &Cloud{Origin: c.Origin, Timestamp: c.Timestamp, Points: newPoints(len(s.accs))}
	for i := range s.accs {
		a := &s.accs[i]
		out.Points = append(out.Points, a.sum.Scale(1/float64(a.n)))
	}
	voxelScratchPool.Put(s)
	return out
}

// voxelAcc accumulates the centroid of one voxel cell.
type voxelAcc struct {
	sum geom.Vec3
	n   int
}

// voxelScratch is VoxelFilter's reusable working state: cell directory plus
// accumulators in first-appearance order. Pooled because the SLAM pipeline
// voxel-filters every depth frame.
type voxelScratch struct {
	cells map[[3]int32]int32
	accs  []voxelAcc
}

var voxelScratchPool = sync.Pool{New: func() any {
	return &voxelScratch{cells: make(map[[3]int32]int32, 256)}
}}

// Transform returns the cloud with every point (and the origin) offset by d.
func Transform(c *Cloud, d geom.Vec3) *Cloud {
	out := &Cloud{Origin: c.Origin.Add(d), Timestamp: c.Timestamp, Points: make([]geom.Vec3, len(c.Points))}
	for i, p := range c.Points {
		out.Points[i] = p.Add(d)
	}
	return out
}

// Merge concatenates several clouds, keeping the first cloud's origin.
func Merge(clouds ...*Cloud) *Cloud {
	out := &Cloud{}
	for i, c := range clouds {
		if c == nil {
			continue
		}
		if i == 0 {
			out.Origin = c.Origin
			out.Timestamp = c.Timestamp
		}
		out.Points = append(out.Points, c.Points...)
	}
	return out
}
