package workloads

import (
	"time"

	"mavbench/internal/actuation"
	"mavbench/internal/compute"
	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/planning"
	"mavbench/internal/ros"
	"mavbench/internal/sim"
)

// Mapping3D is the exploration workload: build a 3-D occupancy map of an
// unknown bounded area. The mission loop alternates between frontier
// selection (the expensive next-best-view planning kernel), flying to the
// selected viewpoint and integrating new depth data, until a target fraction
// of the volume is known or no frontier remains.
type Mapping3D struct{}

func init() { core.Register(Mapping3D{}) }

// Name implements core.Workload.
func (Mapping3D) Name() string { return "mapping_3d" }

// Description implements core.Workload.
func (Mapping3D) Description() string {
	return "explore and build a 3-D occupancy map of an unknown bounded area"
}

// World implements core.Workload.
func (Mapping3D) World(p core.Params) (*env.World, geom.Vec3, error) {
	w, err := buildEnvironment(p, "disaster")
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	start := findClearSpot(w, geom.V3(w.Bounds.Min.X+4, w.Bounds.Min.Y+4, 0), 2.0)
	return w, start, nil
}

// Setup implements core.Workload.
func (Mapping3D) Setup(s *sim.Simulator, p core.Params) error {
	cfg := explorationConfig{
		targetKnownFraction: mappingTarget(p),
		onFrame:             nil,
		stopOnDetection:     false,
	}
	// Cooperative mapping: like swarm search and rescue, each drone of a
	// fleet maps its own X-slab of the volume.
	if n := s.VehicleCount(); n > 1 {
		sector := swarmSector(s.World().Bounds, s.VehicleIndex(), n)
		cfg.region = &sector
		cfg.targetKnownFraction /= float64(n)
	}
	return setupExploration(s, p, cfg)
}

// mappingTarget is the fraction of the bounded volume that must be observed
// for the mapping mission to count as complete. The drone's front-facing
// depth camera can only ever observe the lower altitude band of the volume,
// so the target is modest; coverage saturation (no further growth) also ends
// the mission.
func mappingTarget(p core.Params) float64 {
	if p.WorldScale > 0 && p.WorldScale < 0.5 {
		return 0.10
	}
	return 0.15
}

// explorationConfig parameterises the shared exploration mission used by the
// 3-D mapping and search-and-rescue workloads.
type explorationConfig struct {
	// targetKnownFraction ends the mission when the map covers this fraction
	// of the bounded volume.
	targetKnownFraction float64
	// onFrame, when non-nil, is invoked for every RGB frame (search and
	// rescue hooks its detector here); it returns true when the mission goal
	// (e.g. survivor found) has been reached.
	onFrame func(nav *navigator, msg ros.Message) (found bool, result ros.CallbackResult)
	// stopOnDetection ends the mission when onFrame reports found.
	stopOnDetection bool
	// region, when non-nil, confines exploration to this X/Y sector: frontier
	// selection only considers in-sector candidates, and a drone outside its
	// sector transits to the sector centre instead of giving up when no
	// in-sector frontier is visible yet. Swarm search-and-rescue assigns one
	// sector per drone (see swarmSector).
	region *geom.AABB
}

// swarmSector partitions the world's X extent into count equal slabs and
// returns drone vehicle's slab (full Y/Z extent). Slab assignment depends
// only on (vehicle, count), never on runtime state, so the partition is
// deterministic across runs and worker counts.
func swarmSector(bounds geom.AABB, vehicle, count int) geom.AABB {
	if count <= 1 {
		return bounds
	}
	width := (bounds.Max.X - bounds.Min.X) / float64(count)
	sector := bounds
	sector.Min.X = bounds.Min.X + float64(vehicle)*width
	sector.Max.X = sector.Min.X + width
	return sector
}

// transitCorridorAltitude is the altitude a fleet drone uses while flying
// toward its assigned sector: a per-vehicle layer above the exploration floor,
// clamped below the world ceiling. Single-drone runs never transit.
func transitCorridorAltitude(s *sim.Simulator) float64 {
	const layer = 2.0
	alt := s.World().Bounds.Min.Z + 2 + layer*float64(s.VehicleIndex())
	if ceiling := s.World().Bounds.Max.Z - 2; alt > ceiling {
		alt = ceiling
	}
	return alt
}

func setupExploration(s *sim.Simulator, p core.Params, cfg explorationConfig) error {
	nav, err := newNavigator(s, p)
	if err != nil {
		return err
	}

	exploring := false
	noFrontier := 0
	lastKnown := 0.0
	lastKnownChange := 0.0

	// Optional per-frame hook (object detection for SAR).
	if cfg.onFrame != nil {
		s.Graph().Node("object_detection").Subscribe(sim.TopicRGBFrame, 1, func(now time.Duration, msg ros.Message) ros.CallbackResult {
			found, res := cfg.onFrame(nav, msg)
			if found && cfg.stopOnDetection && !s.MissionDone() {
				s.Recorder().Count("target_found", 1)
				landAndFinish(s, true, "")
			}
			return res
		})
	}

	selectNextViewpoint := func() {
		if exploring || nav.planning || s.MissionDone() {
			return
		}
		exploring = true
		_ = s.Hover()
		s.Graph().Executor().Submit("frontier_exploration", func(now time.Duration) ros.CallbackResult {
			pos := nav.pose().Position
			res := planning.SelectFrontier(planning.FrontierRequest{
				Map:               nav.octo,
				Current:           pos,
				Radius:            s.VehicleRadius(),
				MaxCandidates:     300,
				MinGoalDistance:   3,
				Floor:             s.World().Bounds.Min.Z + 1,
				Ceiling:           s.World().Bounds.Max.Z - 1,
				InformationRadius: s.DepthCamera().Intrinsics().MaxRange / 2,
				Region:            cfg.region,
			})
			cost := s.Cost().MustKernelTime(compute.KernelFrontierExplore)
			total := s.KernelTime(compute.KernelFrontierExplore, cost, nav.octo.MemoryBytes()/4, 16*1024)
			if res.Exhausted {
				if cfg.region != nil && (pos.X < cfg.region.Min.X || pos.X > cfg.region.Max.X ||
					pos.Y < cfg.region.Min.Y || pos.Y > cfg.region.Max.Y) {
					// No in-sector frontier is visible yet because the drone
					// hasn't reached its sector: transit toward the sector
					// centre instead of declaring the sector swept. Each drone
					// transits in its own altitude layer (the same deconfliction
					// scheme as the delivery corridors) so crossing another
					// drone's sector en route cannot cause a mid-air collision.
					center := cfg.region.Center()
					alt := transitCorridorAltitude(s)
					goal := findClearSpot(s.World(), geom.V3(center.X, center.Y, alt), 2.0)
					nav.planTo(goal, nil)
					s.Recorder().Count("sector_transits", 1)
				} else {
					noFrontier++
				}
			} else if res.Found {
				noFrontier = 0
				goal := res.Goal
				// Keep exploration goals at a safe altitude band.
				if goal.Z < s.World().Bounds.Min.Z+1.5 {
					goal.Z = s.World().Bounds.Min.Z + 1.5
				}
				nav.planTo(goal, nil)
				s.Recorder().Count("exploration_goals", 1)
			}
			return ros.CallbackResult{Cost: total, Kernel: compute.KernelFrontierExplore}
		}, func() {
			exploring = false
		})
	}

	// Mission supervisor: check completion, trigger the next viewpoint when
	// idle.
	s.Engine().Every(des.Seconds(1), "mapping/mission", func(*des.Engine) {
		if s.MissionDone() || s.FCMode() != actuation.ModeOffboard {
			return
		}
		known := nav.mapKnownFraction()
		s.Recorder().Observe("map_known_fraction", known)
		// Track coverage progress: once the known volume stops growing the
		// reachable space has effectively been mapped, even if the volumetric
		// target (which includes unreachable air high above the rubble) was
		// not hit.
		if known > lastKnown+0.002 {
			lastKnown = known
			lastKnownChange = s.Now()
		} else if lastKnownChange == 0 {
			lastKnownChange = s.Now()
		}
		saturated := s.Now()-lastKnownChange > 90 && s.Recorder().Started() && known > 0.02
		if known >= cfg.targetKnownFraction || noFrontier >= 3 || saturated {
			if !cfg.stopOnDetection {
				landAndFinish(s, true, "")
			} else {
				// Search and rescue without a detection: the area is swept,
				// but the target was never found.
				landAndFinish(s, false, "area mapped without finding the target")
			}
			return
		}
		if !nav.tracker.Active() && !nav.planning && !exploring {
			selectNextViewpoint()
		}
	})

	return startFlight(s, func() { selectNextViewpoint() })
}
