package env

import (
	"math"

	"mavbench/internal/geom"
)

// obstacleIndex accelerates World.RayCast and World.NearestObstacleWithin
// with a uniform 2-D grid over the XY footprints of static structures.
// Depth-camera simulation casts thousands of rays per frame; the grid turns
// each cast from an every-obstacle scan into a DDA walk that only tests the
// obstacles whose footprint overlaps the cells the ray actually crosses. The
// physics collision check runs on every step; the grid limits it to the
// obstacles registered near the vehicle.
//
// Every static obstacle (structures and semantic targets alike) is indexed;
// only dynamic obstacles, whose boxes move every Step, stay on a linear scan
// (rest), which is also the list World.Step advances. Static repositioning
// must go through World.MoveObstacle, which drops the index. The index is
// also built lazily on first use and dropped whenever an obstacle is added.
//
// The acceleration is exact, not approximate: RayCast returns the minimum
// intersection distance, a hit at distance t lies in a grid cell the DDA
// visits before its termination bound min(best, maxRange) passes t, and
// every obstacle is registered in all cells its footprint overlaps. Results
// are bit-identical to the linear scan.
type obstacleIndex struct {
	static []*Obstacle // indexed static structures
	rest   []*Obstacle // dynamic obstacles, always scanned

	// staticPos and restPos give each obstacle's position in the world's
	// Obstacles() order, which breaks nearest-obstacle ties.
	staticPos, restPos []int32

	minX, minY float64
	cell       float64 // cell edge length (m)
	nx, ny     int
	cells      [][]int32 // per cell, indices into static

	// Vertical pruning: obstacles are ground-anchored, so a ray whose z stays
	// above every obstacle top along a cell cannot hit anything there. zMax is
	// the global ceiling, zTop the per-cell ceiling. Pruning only ever skips
	// cells that provably contain no hit, so results are unchanged.
	zMax float64
	zTop []float64

	// Per-query obstacle dedup: an obstacle spanning several cells is tested
	// once per cast, not once per cell.
	stamp []uint32
	cur   uint32
}

// indexMinStatics is the static-obstacle count below which a grid is not
// worth building and casts scan the static list linearly.
const indexMinStatics = 4

// buildObstacleIndex partitions the obstacles and rasterises the static
// structures' XY footprints into the grid.
func buildObstacleIndex(obstacles []*Obstacle) *obstacleIndex {
	idx := &obstacleIndex{}
	for i, o := range obstacles {
		if o.IsDynamic() {
			idx.rest = append(idx.rest, o)
			idx.restPos = append(idx.restPos, int32(i))
		} else {
			idx.static = append(idx.static, o)
			idx.staticPos = append(idx.staticPos, int32(i))
		}
	}
	if len(idx.static) < indexMinStatics {
		return idx
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, o := range idx.static {
		minX = math.Min(minX, o.Box.Min.X)
		minY = math.Min(minY, o.Box.Min.Y)
		maxX = math.Max(maxX, o.Box.Max.X)
		maxY = math.Max(maxY, o.Box.Max.Y)
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if !(ext > 0) || math.IsInf(ext, 1) {
		return idx
	}
	cell := ext / 64
	if cell < 0.5 {
		cell = 0.5
	}
	nx := int((maxX-minX)/cell) + 1
	ny := int((maxY-minY)/cell) + 1
	idx.minX, idx.minY, idx.cell = minX, minY, cell
	idx.nx, idx.ny = nx, ny
	idx.cells = make([][]int32, nx*ny)
	idx.zTop = make([]float64, nx*ny)
	idx.zMax = math.Inf(-1)
	for i := range idx.zTop {
		idx.zTop[i] = math.Inf(-1)
	}
	for i, o := range idx.static {
		x0 := clampCell(int((o.Box.Min.X-minX)/cell), nx)
		x1 := clampCell(int((o.Box.Max.X-minX)/cell), nx)
		y0 := clampCell(int((o.Box.Min.Y-minY)/cell), ny)
		y1 := clampCell(int((o.Box.Max.Y-minY)/cell), ny)
		if o.Box.Max.Z > idx.zMax {
			idx.zMax = o.Box.Max.Z
		}
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				ci := cy*nx + cx
				idx.cells[ci] = append(idx.cells[ci], int32(i))
				if o.Box.Max.Z > idx.zTop[ci] {
					idx.zTop[ci] = o.Box.Max.Z
				}
			}
		}
	}
	idx.stamp = make([]uint32, len(idx.static))
	return idx
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// castStatic intersects the ray against the indexed static obstacles and
// returns the updated minimum hit distance. best carries the ground-plane
// hit, if any; maxRange bounds how far a hit can matter to the caller.
func (idx *obstacleIndex) castStatic(ray geom.Ray, maxRange, best float64) float64 {
	if idx.cells == nil {
		for _, o := range idx.static {
			if t, ok := ray.IntersectAABB(o.Box); ok && t < best {
				best = t
			}
		}
		return best
	}
	// Clip the ray's XY projection to the grid rectangle. Plain branches
	// stand in for math.Min/math.Max: every operand here is finite (Dir
	// components are nonzero on their branch), so the results are identical.
	tEnter, tExit := 0.0, maxRange
	if best < tExit {
		tExit = best
	}
	gx1 := idx.minX + float64(idx.nx)*idx.cell
	gy1 := idx.minY + float64(idx.ny)*idx.cell
	invX, invY := 0.0, 0.0
	if ray.Dir.X != 0 {
		invX = 1 / ray.Dir.X
		t0, t1 := (idx.minX-ray.Origin.X)*invX, (gx1-ray.Origin.X)*invX
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tEnter {
			tEnter = t0
		}
		if t1 < tExit {
			tExit = t1
		}
	} else if ray.Origin.X < idx.minX || ray.Origin.X > gx1 {
		return best
	}
	if ray.Dir.Y != 0 {
		invY = 1 / ray.Dir.Y
		t0, t1 := (idx.minY-ray.Origin.Y)*invY, (gy1-ray.Origin.Y)*invY
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tEnter {
			tEnter = t0
		}
		if t1 < tExit {
			tExit = t1
		}
	} else if ray.Origin.Y < idx.minY || ray.Origin.Y > gy1 {
		return best
	}
	// Vertical cap: any static hit has entry z <= zMax (boxes are ground-
	// anchored, the slab entry point lies on the box). An ascending ray can
	// therefore only hit at t <= tz where its z crosses zMax; a descending ray
	// only at t >= tz. Clipping to that half-interval discards guaranteed
	// misses only.
	// zSlack (in t units) absorbs last-ulp disagreement between tz and the
	// exact per-box slab entry; widening the kept interval is harmless.
	const zSlack = 1e-9
	hard := maxRange
	if ray.Dir.Z > 0 {
		tz := (idx.zMax-ray.Origin.Z)/ray.Dir.Z + zSlack
		if tz < tExit {
			tExit = tz
		}
		if tz < hard {
			hard = tz
		}
	} else if ray.Dir.Z < 0 {
		tz := (idx.zMax-ray.Origin.Z)/ray.Dir.Z - zSlack
		if tz > tEnter {
			tEnter = tz
		}
	} else if ray.Origin.Z > idx.zMax {
		return best
	}
	if tEnter > tExit {
		return best
	}

	idx.cur++
	if idx.cur == 0 { // stamp wrap: reset and restart
		for i := range idx.stamp {
			idx.stamp[i] = 0
		}
		idx.cur = 1
	}

	// Amanatides–Woo DDA over the XY cells, visited in increasing entry t.
	px := ray.Origin.X + ray.Dir.X*tEnter
	py := ray.Origin.Y + ray.Dir.Y*tEnter
	cx := clampCell(int((px-idx.minX)/idx.cell), idx.nx)
	cy := clampCell(int((py-idx.minY)/idx.cell), idx.ny)
	// Reusing the clip reciprocals (multiply instead of divide) may shift a
	// cell-boundary t by an ulp; that only perturbs which boundary cell the
	// walk enters at a corner graze, and a grazed obstacle is registered in
	// every overlapped cell, so no reachable hit can be skipped.
	stepX, stepY := 0, 0
	tMaxX, tMaxY := math.Inf(1), math.Inf(1)
	tDeltaX, tDeltaY := math.Inf(1), math.Inf(1)
	if ray.Dir.X > 0 {
		stepX = 1
		tDeltaX = idx.cell * invX
		tMaxX = (idx.minX + float64(cx+1)*idx.cell - ray.Origin.X) * invX
	} else if ray.Dir.X < 0 {
		stepX = -1
		tDeltaX = -idx.cell * invX
		tMaxX = (idx.minX + float64(cx)*idx.cell - ray.Origin.X) * invX
	}
	if ray.Dir.Y > 0 {
		stepY = 1
		tDeltaY = idx.cell * invY
		tMaxY = (idx.minY + float64(cy+1)*idx.cell - ray.Origin.Y) * invY
	} else if ray.Dir.Y < 0 {
		stepY = -1
		tDeltaY = -idx.cell * invY
		tMaxY = (idx.minY + float64(cy)*idx.cell - ray.Origin.Y) * invY
	}
	// Slack absorbs last-ulp mismatches between cell-boundary t values and
	// exact hit distances: visiting one extra cell is harmless, skipping a
	// boundary hit would not be. zClear is the vertical analogue for the
	// per-cell top test (obstacle tops are meters apart, 1e-6 m of margin
	// never skips a reachable hit).
	const slack = 1e-9
	const zClear = 1e-6
	limit := hard + slack
	if best < hard {
		limit = best + slack
	}
	oz, dz := ray.Origin.Z, ray.Dir.Z
	tCur := tEnter
	for {
		if list := idx.cells[cy*idx.nx+cx]; len(list) > 0 {
			// Scan only if the ray dips to (or below) the tallest obstacle
			// top of this cell somewhere on its in-cell span; z is monotone
			// in t, so testing the two endpoints suffices.
			zt := idx.zTop[cy*idx.nx+cx] + zClear
			scan := oz+dz*tCur <= zt
			if !scan {
				cellExit := tMaxX
				if tMaxY < cellExit {
					cellExit = tMaxY
				}
				scan = oz+dz*cellExit <= zt
			}
			if scan {
				for _, oi := range list {
					if idx.stamp[oi] == idx.cur {
						continue
					}
					idx.stamp[oi] = idx.cur
					if t, ok := ray.IntersectAABB(idx.static[oi].Box); ok && t < best {
						best = t
						if best < hard {
							limit = best + slack
						}
					}
				}
			}
		}
		if tMaxX < tMaxY {
			if tMaxX > limit {
				return best
			}
			cx += stepX
			if cx < 0 || cx >= idx.nx {
				return best
			}
			tCur = tMaxX
			tMaxX += tDeltaX
		} else {
			if tMaxY > limit {
				return best
			}
			cy += stepY
			if cy < 0 || cy >= idx.ny {
				return best
			}
			tCur = tMaxY
			tMaxY += tDeltaY
		}
	}
}

// cubeSlack widens the cube of half-width r that bounds a nearest-obstacle
// query's candidates. Box.DistanceTo is at least the box's gap from p along
// each axis, exactly so in floating point once a gap is too large to
// underflow when squared; the slack covers those tiny gaps and the rounding
// of p±r, so an obstacle at distance exactly r is never left out. Testing an
// extra candidate is harmless.
const cubeSlack = 1e-6

// inCube reports whether box b overlaps the cube of half-width h around p.
// It is false whenever any coordinate is NaN.
func inCube(b geom.AABB, p geom.Vec3, h float64) bool {
	return b.Min.X-p.X <= h && p.X-b.Max.X <= h &&
		b.Min.Y-p.Y <= h && p.Y-b.Max.Y <= h &&
		b.Min.Z-p.Z <= h && p.Z-b.Max.Z <= h
}

// nearestWithin answers World.NearestObstacleWithin from the grid. Its
// candidates are the static obstacles registered in the cells under the XY
// square of half-width h around p, and every moving obstacle, each kept only
// if it overlaps the cube of half-width h; it returns the nearest, ties going
// to the earliest world position. An obstacle overlapping the cube overlaps
// the square, and is registered in every cell its footprint overlaps. It
// declines, returning +Inf, nil and false, when there is no grid or the
// square covers at least as many cells as there are static obstacles; the
// caller then scans every obstacle.
func (idx *obstacleIndex) nearestWithin(p geom.Vec3, h float64) (best float64, bestObs *Obstacle, ok bool) {
	if idx.cells == nil {
		return math.Inf(1), nil, false
	}
	x0, x1 := idx.cellSpan(p.X-h, p.X+h, idx.minX, idx.nx)
	y0, y1 := idx.cellSpan(p.Y-h, p.Y+h, idx.minY, idx.ny)
	if x0 <= x1 && y0 <= y1 && (x1-x0+1)*(y1-y0+1) >= len(idx.static) {
		return math.Inf(1), nil, false
	}
	best, bestPos := math.Inf(1), int32(-1)
	consider := func(o *Obstacle, pos int32) {
		if !inCube(o.Box, p, h) {
			return
		}
		if d := o.Box.DistanceTo(p); d < best || (d == best && pos < bestPos) {
			best, bestPos, bestObs = d, pos, o
		}
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, oi := range idx.cells[cy*idx.nx+cx] {
				consider(idx.static[oi], idx.staticPos[oi])
			}
		}
	}
	for i, o := range idx.rest {
		consider(o, idx.restPos[i])
	}
	return best, bestObs, true
}

// cellSpan returns the cells c0..c1 along one grid axis (origin lo0, n cells)
// that overlap [lo, hi]; c0 > c1 when the interval misses the grid or is
// empty. Infinite bounds clamp to the grid, and a NaN bound misses it.
func (idx *obstacleIndex) cellSpan(lo, hi, lo0 float64, n int) (c0, c1 int) {
	hi0 := lo0 + float64(n)*idx.cell
	if !(hi >= lo0 && lo <= hi0 && lo <= hi) {
		return 0, -1
	}
	c0, c1 = 0, n-1
	if lo > lo0 {
		c0 = clampCell(int((lo-lo0)/idx.cell), n)
	}
	if hi < hi0 {
		c1 = clampCell(int((hi-lo0)/idx.cell), n)
	}
	return c0, c1
}
