package planning

import (
	"math"
	"sort"
	"sync"

	"mavbench/internal/geom"
	"mavbench/internal/octomap"
)

// LawnmowerRequest parameterises the coverage planner used by the scanning
// workload: sweep a rectangular area at a fixed altitude with a given swath
// spacing.
type LawnmowerRequest struct {
	// Area is the rectangle to cover (only X/Y are used).
	Area geom.AABB
	// Altitude of the sweep.
	Altitude float64
	// Spacing between adjacent sweep lanes (the sensor footprint width).
	Spacing float64
	// Start is where the vehicle begins; the pattern starts from the area
	// corner closest to it.
	Start geom.Vec3
}

// Lawnmower computes the boustrophedon ("lawnmower") coverage path: parallel
// lanes along the area's longer side, connected by short transitions.
func Lawnmower(req LawnmowerRequest) Path {
	if req.Spacing <= 0 {
		req.Spacing = 10
	}
	size := req.Area.Size()
	if size.X <= 0 || size.Y <= 0 {
		return Path{}
	}

	// Sweep along X (the longer side) with lanes stacked along Y, or vice
	// versa, to minimise the number of turns.
	sweepAlongX := size.X >= size.Y
	var laneCoords []float64
	var laneMin, laneMax float64
	if sweepAlongX {
		for y := req.Area.Min.Y; y <= req.Area.Max.Y+1e-9; y += req.Spacing {
			laneCoords = append(laneCoords, math.Min(y, req.Area.Max.Y))
		}
		laneMin, laneMax = req.Area.Min.X, req.Area.Max.X
	} else {
		for x := req.Area.Min.X; x <= req.Area.Max.X+1e-9; x += req.Spacing {
			laneCoords = append(laneCoords, math.Min(x, req.Area.Max.X))
		}
		laneMin, laneMax = req.Area.Min.Y, req.Area.Max.Y
	}
	if len(laneCoords) == 0 {
		return Path{}
	}
	// Ensure the final lane covers the far edge.
	last := laneCoords[len(laneCoords)-1]
	var farEdge float64
	if sweepAlongX {
		farEdge = req.Area.Max.Y
	} else {
		farEdge = req.Area.Max.X
	}
	if math.Abs(last-farEdge) > 1e-9 {
		laneCoords = append(laneCoords, farEdge)
	}

	// Start from the nearest end of the first lane.
	forward := true
	if req.Start.Dist(laneEndpoint(sweepAlongX, laneCoords[0], laneMax, req.Altitude)) <
		req.Start.Dist(laneEndpoint(sweepAlongX, laneCoords[0], laneMin, req.Altitude)) {
		forward = false
	}

	var wps []geom.Vec3
	for _, lane := range laneCoords {
		a := laneEndpoint(sweepAlongX, lane, laneMin, req.Altitude)
		b := laneEndpoint(sweepAlongX, lane, laneMax, req.Altitude)
		if forward {
			wps = append(wps, a, b)
		} else {
			wps = append(wps, b, a)
		}
		forward = !forward
	}
	return Path{Waypoints: wps}
}

func laneEndpoint(sweepAlongX bool, lane, along, altitude float64) geom.Vec3 {
	if sweepAlongX {
		return geom.V3(along, lane, altitude)
	}
	return geom.V3(lane, along, altitude)
}

// CoverageArea returns the area swept by a lawnmower path with the given
// swath width (an upper bound: overlaps are not subtracted).
func CoverageArea(p Path, swath float64) float64 {
	return p.Length() * swath
}

// FrontierRequest parameterises the exploration planner used by the 3-D
// mapping and search-and-rescue workloads.
type FrontierRequest struct {
	// Map is the drone's current occupancy map.
	Map *octomap.Map
	// Current is the vehicle position.
	Current geom.Vec3
	// Radius is the vehicle collision radius.
	Radius float64
	// MaxCandidates bounds how many frontier cells are scored.
	MaxCandidates int
	// MinGoalDistance rejects frontier cells closer than this (they provide
	// no new information).
	MinGoalDistance float64
	// Altitude band the vehicle may use.
	Floor, Ceiling float64
	// InformationRadius is the sensor radius used to estimate how much
	// unknown volume a candidate would reveal.
	InformationRadius float64
	// Region, when non-nil, restricts candidates to this X/Y rectangle (Z is
	// still governed by Floor/Ceiling). Multi-vehicle swarm exploration uses
	// it to keep each drone inside its assigned sector.
	Region *geom.AABB
}

// FrontierResult is the chosen exploration goal.
type FrontierResult struct {
	Goal geom.Vec3
	// Score combines information gain and travel cost (higher is better).
	Score float64
	// Candidates is how many frontier cells were evaluated.
	Candidates int
	Found      bool
	// Exhausted is true when no frontier remains: the environment is mapped.
	Exhausted bool
}

// frontierPool recycles SelectFrontier's frontier-cell buffer: exploration
// selects a frontier every step, and each selection would otherwise allocate
// the cell list afresh.
var frontierPool = sync.Pool{New: func() any { return new([]geom.Vec3) }}

// SelectFrontier implements a receding-horizon "next best view" selection: it
// scores frontier cells by (estimated information gain) / (travel cost) and
// returns the best one, mirroring the exploration planner MAVBench adopts.
func SelectFrontier(req FrontierRequest) FrontierResult {
	res := FrontierResult{}
	if req.Map == nil {
		return res
	}
	if req.MaxCandidates <= 0 {
		req.MaxCandidates = 400
	}
	if req.MinGoalDistance <= 0 {
		req.MinGoalDistance = 2
	}
	if req.InformationRadius <= 0 {
		req.InformationRadius = 5
	}
	buf := frontierPool.Get().(*[]geom.Vec3)
	cells := req.Map.FrontierCells((*buf)[:0], req.MaxCandidates*4)
	defer func() {
		*buf = cells[:0]
		frontierPool.Put(buf)
	}()
	if len(cells) == 0 {
		res.Exhausted = true
		return res
	}
	// Keep candidates within the altitude band and beyond the minimum travel
	// distance, filtering in place; sort by distance so scoring is
	// deterministic.
	cands := cells[:0]
	for _, c := range cells {
		if req.Ceiling > req.Floor && (c.Z < req.Floor || c.Z > req.Ceiling) {
			continue
		}
		if req.Region != nil &&
			(c.X < req.Region.Min.X || c.X > req.Region.Max.X ||
				c.Y < req.Region.Min.Y || c.Y > req.Region.Max.Y) {
			continue
		}
		if c.Dist(req.Current) < req.MinGoalDistance {
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		res.Exhausted = true
		return res
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].DistSq(req.Current) < cands[j].DistSq(req.Current) })
	if len(cands) > req.MaxCandidates {
		cands = cands[:req.MaxCandidates]
	}

	best := -math.MaxFloat64
	var bestGoal geom.Vec3
	for _, c := range cands {
		res.Candidates++
		gain := informationGain(req.Map, c, req.InformationRadius)
		cost := c.Dist(req.Current)
		score := gain / (1 + cost)
		if score > best {
			best = score
			bestGoal = c
		}
	}
	res.Found = true
	res.Goal = bestGoal
	res.Score = best
	return res
}

// informationGain estimates the unknown volume a sensor sweep at p would
// observe, by sampling a coarse lattice of points within the sensing radius.
func informationGain(m *octomap.Map, p geom.Vec3, radius float64) float64 {
	step := radius / 2
	unknown := 0
	total := 0
	for dx := -radius; dx <= radius; dx += step {
		for dy := -radius; dy <= radius; dy += step {
			for dz := -radius / 2; dz <= radius/2; dz += step {
				q := p.Add(geom.V3(dx, dy, dz))
				if !m.Bounds().Contains(q) {
					continue
				}
				total++
				if m.At(q) == octomap.Unknown {
					unknown++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(unknown) / float64(total)
}
