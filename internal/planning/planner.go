// Package planning provides the motion-planning kernels of the MAVBench
// planning stage — the "motion_planning_*" and "smoothening" rows of the
// paper's Table I kernel profile (MAVBench, Boroujerdian et al., MICRO 2018,
// Section IV), whose runtimes dominate several workloads' sensitivity to the
// compute operating point in the Figure 10-15 sweeps.
//
// It is the Go counterpart of the planning components the paper assembles
// from OMPL and companion ROS packages:
//
//   - sampling-based shortest-path planners (RRT, RRT-Connect, PRM+A*),
//   - a lawnmower coverage planner for the scanning workload,
//   - a frontier/next-best-view exploration planner for 3-D mapping and
//     search-and-rescue,
//   - trajectory smoothing that turns piecewise-linear paths into dynamically
//     feasible, velocity/acceleration-bounded trajectories,
//   - collision checking against either the ground-truth world or the
//     drone's own occupancy map (package octomap).
package planning

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/octomap"
)

// CollisionChecker answers the two queries every sampling-based planner
// needs. Implementations exist for the ground-truth world (used by tests and
// by the "perfect perception" configuration) and for the drone's occupancy
// map (the realistic configuration).
type CollisionChecker interface {
	// PointFree reports whether a sphere of the given radius centered at p is
	// collision free.
	PointFree(p geom.Vec3, radius float64) bool
	// SegmentFree reports whether the swept sphere along the segment from a
	// to b is collision free.
	SegmentFree(a, b geom.Vec3, radius float64) bool
	// Checks returns the number of collision queries answered so far; the
	// compute cost model uses it to price planning invocations.
	Checks() int
}

// WorldChecker checks against the ground-truth environment.
type WorldChecker struct {
	World  *env.World
	checks int
}

// NewWorldChecker wraps a world.
func NewWorldChecker(w *env.World) *WorldChecker { return &WorldChecker{World: w} }

// PointFree implements CollisionChecker.
func (c *WorldChecker) PointFree(p geom.Vec3, radius float64) bool {
	c.checks++
	return !c.World.Occupied(p, radius)
}

// SegmentFree implements CollisionChecker.
func (c *WorldChecker) SegmentFree(a, b geom.Vec3, radius float64) bool {
	c.checks++
	return !c.World.SegmentCollides(a, b, radius)
}

// Checks implements CollisionChecker.
func (c *WorldChecker) Checks() int { return c.checks }

// MapChecker checks against the drone's occupancy map. Unknown space is
// treated as free by default (the benchmark's planners plan through unknown
// space and re-plan when new obstacles appear), switchable to conservative.
type MapChecker struct {
	Map *octomap.Map
	// TreatUnknownAsOccupied selects conservative collision checking.
	TreatUnknownAsOccupied bool
	// Floor and Ceiling bound the usable altitude band.
	Floor, Ceiling float64
	checks         int
}

// NewMapChecker wraps an occupancy map with an altitude band.
func NewMapChecker(m *octomap.Map, floor, ceiling float64) *MapChecker {
	return &MapChecker{Map: m, Floor: floor, Ceiling: ceiling}
}

// PointFree implements CollisionChecker.
func (c *MapChecker) PointFree(p geom.Vec3, radius float64) bool {
	c.checks++
	if c.Ceiling > c.Floor && (p.Z < c.Floor || p.Z > c.Ceiling) {
		return false
	}
	return !c.Map.CollidesSphere(p, radius, c.TreatUnknownAsOccupied)
}

// SegmentFree implements CollisionChecker.
func (c *MapChecker) SegmentFree(a, b geom.Vec3, radius float64) bool {
	c.checks++
	if c.Ceiling > c.Floor {
		if a.Z < c.Floor || a.Z > c.Ceiling || b.Z < c.Floor || b.Z > c.Ceiling {
			return false
		}
	}
	return !c.Map.SegmentCollides(a, b, radius, c.TreatUnknownAsOccupied)
}

// Checks implements CollisionChecker.
func (c *MapChecker) Checks() int { return c.checks }

// Path is a piecewise-linear path through free space.
type Path struct {
	Waypoints []geom.Vec3
}

// Length returns the total path length.
func (p Path) Length() float64 {
	total := 0.0
	for i := 1; i < len(p.Waypoints); i++ {
		total += p.Waypoints[i].Dist(p.Waypoints[i-1])
	}
	return total
}

// Valid reports whether the path has at least a start and an end.
func (p Path) Valid() bool { return len(p.Waypoints) >= 2 }

// Start returns the first waypoint.
func (p Path) Start() geom.Vec3 {
	if len(p.Waypoints) == 0 {
		return geom.Vec3{}
	}
	return p.Waypoints[0]
}

// End returns the last waypoint.
func (p Path) End() geom.Vec3 {
	if len(p.Waypoints) == 0 {
		return geom.Vec3{}
	}
	return p.Waypoints[len(p.Waypoints)-1]
}

// CollisionFree verifies every segment of the path against the checker.
func (p Path) CollisionFree(c CollisionChecker, radius float64) bool {
	for i := 1; i < len(p.Waypoints); i++ {
		if !c.SegmentFree(p.Waypoints[i-1], p.Waypoints[i], radius) {
			return false
		}
	}
	return true
}

// Request is a shortest-path planning query.
type Request struct {
	Start, Goal geom.Vec3
	// Bounds is the sampling volume.
	Bounds geom.AABB
	// Radius is the vehicle's collision radius.
	Radius float64
	// GoalTolerance accepts states within this distance of the goal.
	GoalTolerance float64
	// MaxIterations bounds the sampling effort.
	MaxIterations int
	// StepSize is the tree extension step (RRT) / neighbour radius scale (PRM).
	StepSize float64
	Seed     int64
}

// Validate fills defaults and rejects impossible requests.
func (r *Request) Validate() error {
	if r.Radius <= 0 {
		r.Radius = 0.4
	}
	if r.GoalTolerance <= 0 {
		r.GoalTolerance = 1.0
	}
	if r.MaxIterations <= 0 {
		r.MaxIterations = 4000
	}
	if r.StepSize <= 0 {
		r.StepSize = 2.5
	}
	if r.Bounds.Volume() <= 0 {
		return errors.New("planning: request has empty sampling bounds")
	}
	if !r.Bounds.Contains(r.Start) || !r.Bounds.Contains(r.Goal) {
		return fmt.Errorf("planning: start %v or goal %v outside bounds %v", r.Start, r.Goal, r.Bounds)
	}
	return nil
}

// Result is the outcome of a planning query.
type Result struct {
	Path Path
	// Found reports whether a path to the goal (within tolerance) was found.
	Found bool
	// Iterations spent and collision Checks performed; both feed the compute
	// cost model.
	Iterations int
	Checks     int
	// PlannerName identifies which algorithm produced the result.
	PlannerName string
}

// Planner is a shortest-path planning algorithm.
type Planner interface {
	Name() string
	Plan(req Request, checker CollisionChecker) Result
}

// NewPlanner constructs a planner by name ("rrt", "rrt_connect", "prm").
func NewPlanner(name string) (Planner, error) {
	switch name {
	case "rrt", "":
		return &RRT{}, nil
	case "rrt_connect", "rrtconnect":
		return &RRTConnect{}, nil
	case "prm", "prm_astar":
		return &PRM{}, nil
	default:
		return nil, fmt.Errorf("planning: unknown planner %q", name)
	}
}

// Shortcut simplifies a path by repeatedly attempting to connect
// non-adjacent waypoints directly, the standard OMPL path-simplification
// step. attempts bounds the number of random shortcut trials.
func Shortcut(p Path, checker CollisionChecker, radius float64, attempts int, seed int64) Path {
	if len(p.Waypoints) <= 2 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	wps := append([]geom.Vec3(nil), p.Waypoints...)
	if attempts <= 0 {
		attempts = 100
	}
	for a := 0; a < attempts && len(wps) > 2; a++ {
		i := rng.Intn(len(wps) - 2)
		j := i + 2 + rng.Intn(len(wps)-i-2)
		if j >= len(wps) {
			j = len(wps) - 1
		}
		if j <= i+1 {
			continue
		}
		if checker.SegmentFree(wps[i], wps[j], radius) {
			wps = append(wps[:i+1], wps[j:]...)
		}
	}
	return Path{Waypoints: wps}
}

// nearestIndex returns the index of the node in nodes closest to p.
func nearestIndex(nodes []geom.Vec3, p geom.Vec3) int {
	best := 0
	bestD := math.Inf(1)
	for i, n := range nodes {
		if d := n.DistSq(p); d < bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// sampleBounds returns a uniform sample inside b, biased toward goal with
// probability goalBias.
func sampleBounds(rng *rand.Rand, b geom.AABB, goal geom.Vec3, goalBias float64) geom.Vec3 {
	if rng.Float64() < goalBias {
		return goal
	}
	s := b.Size()
	return geom.Vec3{
		X: b.Min.X + rng.Float64()*s.X,
		Y: b.Min.Y + rng.Float64()*s.Y,
		Z: b.Min.Z + rng.Float64()*s.Z,
	}
}
