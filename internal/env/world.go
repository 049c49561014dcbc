// Package env provides the simulated 3-D environments the MAV flies in.
//
// The original MAVBench obtains its environments from the Unreal Engine
// (urban maps, indoor spaces, farms, disaster sites) and adds programmable
// knobs for static obstacle density and dynamic obstacle speed. This package
// replaces rendered environments with procedurally generated geometric
// worlds: collections of axis-aligned boxes and moving obstacles, plus
// semantic target objects (people to find, delivery pads, subjects to film).
// The evaluation only ever consumes geometry — depth images via ray casting,
// collision queries, openings to plan through — so the substitution preserves
// the behaviour that matters while staying deterministic and dependency-free.
package env

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"

	"mavbench/internal/geom"
)

// ObstacleKind categorises obstacles for reporting and for target queries.
type ObstacleKind int

const (
	// KindStructure is a generic static structure (building, wall, tree trunk).
	KindStructure ObstacleKind = iota
	// KindDynamic is a moving obstacle (vehicle, another aerial agent).
	KindDynamic
	// KindPerson is a human target (search-and-rescue victim, photography subject).
	KindPerson
	// KindDeliveryPad is a package-delivery destination marker.
	KindDeliveryPad
)

// String implements fmt.Stringer.
func (k ObstacleKind) String() string {
	switch k {
	case KindStructure:
		return "structure"
	case KindDynamic:
		return "dynamic"
	case KindPerson:
		return "person"
	case KindDeliveryPad:
		return "delivery_pad"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Obstacle is a box-shaped object in the world. Dynamic obstacles carry a
// velocity and patrol between two waypoints.
type Obstacle struct {
	ID    int
	Kind  ObstacleKind
	Box   geom.AABB
	Label string

	// Dynamic motion: the obstacle oscillates between PatrolA and PatrolB at
	// Speed m/s. Zero speed means static.
	Speed   float64
	PatrolA geom.Vec3
	PatrolB geom.Vec3
	phase   float64 // position along the patrol in [0, 2), 0..1 = A->B, 1..2 = B->A
}

// Center returns the obstacle's current center.
func (o *Obstacle) Center() geom.Vec3 { return o.Box.Center() }

// IsDynamic reports whether the obstacle moves.
func (o *Obstacle) IsDynamic() bool { return o.Speed > 0 }

// World is a bounded 3-D environment.
//
// Geometry queries — RayCast, Cast and NearestObstacleWithin — run on a
// lazily built index (see obstacle_index.go) and reuse scratch state, so a
// World is not safe for concurrent use, not even for queries alone; give
// each goroutine its own Clone.
type World struct {
	Name   string
	Bounds geom.AABB
	// GroundZ is the altitude of the ground plane; everything below it is
	// considered occupied.
	GroundZ float64

	obstacles []*Obstacle
	nextID    int
	rng       *rand.Rand
	elapsed   float64

	// idx is the lazily built obstacle index (see obstacle_index.go and
	// index). Dropped on AddObstacle; never copied by Clone, so clones
	// rebuild their own against their own obstacle copies.
	idx *obstacleIndex

	// version counts geometry changes (obstacles added, moved, or stepped).
	// Sensors use it to detect that the scene is unchanged between captures.
	version uint64

	// Per-frame dynamic prefilter for Cast: the moving obstacles
	// within range of one cast origin. A depth frame casts ~2k rays from the
	// same origin against the same obstacle positions, so the reachable
	// subset is computed once per (version, origin, range) and reused.
	dynNear    []*Obstacle
	dynOrigin  geom.Vec3
	dynRange   float64
	dynVersion uint64
	dynValid   bool

	// seed and src make the world cloneable: the RNG stream is a pure
	// function of the seed, so a fresh source fast-forwarded by src.draws
	// steps is in exactly the generator's state (see Clone).
	seed int64
	src  *countingSource
}

// countingSource wraps math/rand's seeded source and counts draws. It
// deliberately implements only rand.Source (not Source64): every rand.Rand
// method then funnels through Int63, so the draw count alone pins the source
// state and replaying that many Int63 calls reproduces it bit-exactly.
type countingSource struct {
	src   rand.Source
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// replaySource returns a counting source seeded with seed and fast-forwarded
// by draws steps — the exact state of a source that has served draws calls.
func replaySource(seed int64, draws uint64) *countingSource {
	src := rand.NewSource(seed)
	for i := uint64(0); i < draws; i++ {
		src.Int63()
	}
	return &countingSource{src: src, draws: draws}
}

// clone returns an independent source in exactly c's state. The fast path
// copies the underlying generator's state structurally; reseeding plus
// replaying every draw (the slow path) is reserved for source types whose
// state cannot be copied. Both paths produce bit-identical future sequences
// — the fast path is what makes serving a cached world much cheaper than
// building one, since math/rand's seeding alone costs more than most world
// constructions.
func (c *countingSource) clone(seed int64) *countingSource {
	if copied, ok := cloneRandSource(c.src); ok {
		return &countingSource{src: copied, draws: c.draws}
	}
	return replaySource(seed, c.draws)
}

// cloneRandSource structurally deep-copies a rand.Source backed by a pointer
// to a plain struct (math/rand's seeded source is: two ints and a fixed
// array, no references). Copying the whole struct value carries the exact
// generator state without touching unexported fields individually, which
// reflection forbids. Any panic or unexpected shape reports !ok and the
// caller falls back to replaying.
func cloneRandSource(src rand.Source) (out rand.Source, ok bool) {
	defer func() {
		if recover() != nil {
			out, ok = nil, false
		}
	}()
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return nil, false
	}
	n := reflect.New(v.Elem().Type())
	n.Elem().Set(v.Elem())
	out, ok = n.Interface().(rand.Source)
	return out, ok
}

// New creates an empty world with the given bounds.
func New(name string, bounds geom.AABB, seed int64) *World {
	src := &countingSource{src: rand.NewSource(seed)}
	return &World{
		Name:    name,
		Bounds:  bounds,
		GroundZ: bounds.Min.Z,
		rng:     rand.New(src),
		seed:    seed,
		src:     src,
	}
}

// Seed returns the seed the world's RNG was created with.
func (w *World) Seed() int64 { return w.seed }

// Clone returns a deep copy of the world whose future behaviour is
// bit-identical to the original's: obstacles (including patrol phase),
// elapsed time and the RNG state (replayed from the seed by draw count) are
// all reproduced exactly. Clones share nothing, so a cached world can hand a
// clone to every run while staying pristine itself.
func (w *World) Clone() *World {
	nw := &World{
		Name:    w.Name,
		Bounds:  w.Bounds,
		GroundZ: w.GroundZ,
		nextID:  w.nextID,
		elapsed: w.elapsed,
		seed:    w.seed,
	}
	if w.src != nil {
		nw.src = w.src.clone(w.seed)
	} else {
		nw.src = replaySource(w.seed, 0)
	}
	nw.rng = rand.New(nw.src)
	// One block for all obstacle copies: a clone allocates O(1) times, not
	// once per obstacle.
	copies := make([]Obstacle, len(w.obstacles))
	nw.obstacles = make([]*Obstacle, len(w.obstacles))
	for i, o := range w.obstacles {
		copies[i] = *o // value copy carries Box, patrol state and phase
		nw.obstacles[i] = &copies[i]
	}
	return nw
}

// AddObstacle inserts a static obstacle and returns it.
func (w *World) AddObstacle(kind ObstacleKind, box geom.AABB, label string) *Obstacle {
	o := &Obstacle{ID: w.nextID, Kind: kind, Box: box, Label: label}
	w.nextID++
	w.obstacles = append(w.obstacles, o)
	w.idx = nil
	w.version++
	return o
}

// AddDynamicObstacle inserts an obstacle that patrols between a and b at the
// given speed.
func (w *World) AddDynamicObstacle(box geom.AABB, a, b geom.Vec3, speed float64, label string) *Obstacle {
	o := w.AddObstacle(KindDynamic, box, label)
	o.Speed = speed
	o.PatrolA = a
	o.PatrolB = b
	return o
}

// MoveObstacle repositions an obstacle's box and invalidates the ray-cast
// index. Static obstacles are indexed for ray casting, so callers must
// reposition them through this method (or re-add them) rather than writing
// Box directly.
func (w *World) MoveObstacle(o *Obstacle, box geom.AABB) {
	o.Box = box
	w.idx = nil
	w.version++
}

// Version returns a counter that increases whenever world geometry changes
// (obstacles added, repositioned, or advanced by Step). Two calls observing
// the same version are guaranteed to see identical geometry.
func (w *World) Version() uint64 { return w.version }

// Obstacles returns all obstacles (callers must not mutate the slice, nor
// write a static obstacle's Box directly — see MoveObstacle).
func (w *World) Obstacles() []*Obstacle { return w.obstacles }

// ObstaclesOfKind returns all obstacles of the given kind.
func (w *World) ObstaclesOfKind(kind ObstacleKind) []*Obstacle {
	var out []*Obstacle
	for _, o := range w.obstacles {
		if o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// ObstacleCount returns the number of obstacles.
func (w *World) ObstacleCount() int { return len(w.obstacles) }

// Elapsed returns the simulated world time in seconds (advanced by Step).
func (w *World) Elapsed() float64 { return w.elapsed }

// Step advances dynamic obstacles by dt seconds.
func (w *World) Step(dt float64) {
	if dt <= 0 {
		return
	}
	w.elapsed += dt
	// The index lists the moving obstacles in world order, so a step costs
	// nothing per static obstacle.
	for _, o := range w.index().rest {
		span := o.PatrolA.Dist(o.PatrolB)
		if span == 0 {
			continue
		}
		o.phase += o.Speed * dt / span
		for o.phase >= 2 {
			o.phase -= 2
		}
		t := o.phase
		if t > 1 {
			t = 2 - t // coming back
		}
		target := o.PatrolA.Lerp(o.PatrolB, t)
		o.Box = geom.BoxAt(target, o.Box.Size())
		w.version++
	}
}

// index returns the obstacle index, building it if an obstacle was added or
// moved since the last build.
func (w *World) index() *obstacleIndex {
	if w.idx == nil {
		w.idx = buildObstacleIndex(w.obstacles)
	}
	return w.idx
}

// Occupied reports whether the point collides with the ground, the world
// boundary or any obstacle, after inflating obstacles by radius (the MAV's
// bounding-sphere radius).
func (w *World) Occupied(p geom.Vec3, radius float64) bool {
	if p.Z-radius < w.GroundZ {
		return true
	}
	if !w.Bounds.Expand(-radius).Contains(p) {
		return true
	}
	for _, o := range w.obstacles {
		if o.Box.Expand(radius).Contains(p) {
			return true
		}
	}
	return false
}

// SegmentCollides reports whether the straight segment from a to b, swept by
// a sphere of the given radius, collides with the ground or any obstacle.
func (w *World) SegmentCollides(a, b geom.Vec3, radius float64) bool {
	if math.Min(a.Z, b.Z)-radius < w.GroundZ {
		return true
	}
	seg := geom.Segment{A: a, B: b}
	for _, o := range w.obstacles {
		if seg.IntersectsAABB(o.Box, radius) {
			return true
		}
	}
	return false
}

// RayCast returns the distance from origin along dir (which need not be
// normalized) to the first obstacle or ground hit, up to maxRange. The
// boolean reports whether anything was hit within range.
func (w *World) RayCast(origin, dir geom.Vec3, maxRange float64) (float64, bool) {
	d := dir.Unit()
	if d.IsZero() || maxRange <= 0 {
		return 0, false
	}
	best := w.Cast(origin, d, maxRange)
	if best > maxRange {
		return 0, false
	}
	return best, true
}

// Cast returns the exact distance along unit direction d to the nearest
// ground-plane or obstacle hit, or +Inf when there is none. The result may
// exceed maxRange, which only bounds how far the search must reach: static
// obstacles are walked on the index grid up to it, and moving obstacles
// entirely farther than maxRange from the origin are skipped. Any hit of
// theirs has t >= that distance > maxRange, and such a candidate never
// changes the outcome of a cast bounded by maxRange (it is "no return"
// either way), so the prefilter is bit-identical to the full scan.
func (w *World) Cast(origin, d geom.Vec3, maxRange float64) float64 {
	best := math.Inf(1)
	// Ground plane first: the minimum over all hit candidates is
	// order-independent, and seeding best with the ground hit lets the grid
	// walk below terminate as soon as it passes the ground distance —
	// downward rays are the common case for a flying depth camera.
	if d.Z < 0 {
		t := (w.GroundZ - origin.Z) / d.Z
		if t >= 0 && t < best {
			best = t
		}
	}
	ray := geom.Ray{Origin: origin, Dir: d}
	idx := w.index()
	best = idx.castStatic(ray, maxRange, best)
	rest := idx.rest
	if len(rest) > 2 {
		// rangeSlack keeps an obstacle whose distance lands within float
		// error of the boundary; testing an extra obstacle is harmless.
		const rangeSlack = 1e-6
		if !(w.dynValid && w.dynVersion == w.version && w.dynOrigin == origin && w.dynRange == maxRange) {
			w.dynNear = w.dynNear[:0]
			for _, o := range rest {
				if o.Box.DistanceTo(origin) <= maxRange+rangeSlack {
					w.dynNear = append(w.dynNear, o)
				}
			}
			w.dynOrigin, w.dynRange, w.dynVersion, w.dynValid = origin, maxRange, w.version, true
		}
		rest = w.dynNear
	}
	for _, o := range rest {
		if t, ok := ray.IntersectAABB(o.Box); ok && t < best {
			best = t
		}
	}
	return best
}

// NearestObstacleWithin returns the obstacle closest to p and its surface
// distance (0 when p is inside it), provided that distance is at most r;
// otherwise it returns +Inf and nil. The ground plane is not considered.
//
// The answer is exactly that of a scan over every obstacle: the same
// obstacle, ties going to the earliest in Obstacles() order, and the same
// Box.DistanceTo value. Only obstacles overlapping a cube of half-width
// slightly over r around p are measured. When that cube's XY square covers
// fewer cells of the obstacle index's grid than there are static obstacles,
// the candidates are the static obstacles registered in those cells and the
// moving ones; otherwise the query scans every obstacle.
func (w *World) NearestObstacleWithin(p geom.Vec3, r float64) (float64, *Obstacle) {
	h := r + cubeSlack
	best, bestObs, indexed := w.index().nearestWithin(p, h)
	if !indexed {
		for _, o := range w.obstacles {
			if !inCube(o.Box, p, h) {
				continue
			}
			if d := o.Box.DistanceTo(p); d < best {
				best, bestObs = d, o
			}
		}
	}
	if !(best <= r) {
		return math.Inf(1), nil
	}
	return best, bestObs
}

// Targets returns obstacles of semantic kinds (person, delivery pad) sorted
// by ID, used by detection and mission logic.
func (w *World) Targets() []*Obstacle {
	var out []*Obstacle
	for _, o := range w.obstacles {
		if o.Kind == KindPerson || o.Kind == KindDeliveryPad {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FreeVolumeFraction estimates the fraction of the world volume not occupied
// by obstacles, by Monte-Carlo sampling; used as a difficulty metric and in
// tests.
func (w *World) FreeVolumeFraction(samples int) float64 {
	if samples <= 0 {
		samples = 1000
	}
	free := 0
	for i := 0; i < samples; i++ {
		p := w.SamplePoint()
		if !w.Occupied(p, 0) {
			free++
		}
	}
	return float64(free) / float64(samples)
}

// SamplePoint returns a uniformly random point inside the world bounds.
func (w *World) SamplePoint() geom.Vec3 {
	s := w.Bounds.Size()
	return geom.Vec3{
		X: w.Bounds.Min.X + w.rng.Float64()*s.X,
		Y: w.Bounds.Min.Y + w.rng.Float64()*s.Y,
		Z: w.Bounds.Min.Z + w.rng.Float64()*s.Z,
	}
}

// SampleFreePoint returns a random point not occupied (with the given
// clearance radius), or false after maxTries failures.
func (w *World) SampleFreePoint(radius float64, maxTries int) (geom.Vec3, bool) {
	if maxTries <= 0 {
		maxTries = 100
	}
	for i := 0; i < maxTries; i++ {
		p := w.SamplePoint()
		if !w.Occupied(p, radius) {
			return p, true
		}
	}
	return geom.Vec3{}, false
}

// RNG exposes the world's seeded random source so generators stay
// deterministic per seed.
func (w *World) RNG() *rand.Rand { return w.rng }
