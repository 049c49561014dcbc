// Package workloads implements the five MAVBench benchmark applications:
// Scanning, Package Delivery, 3-D Mapping, Search and Rescue and Aerial
// Photography.
//
// Each workload wires the perception → planning → control pipeline of the
// paper's Figure 5/7 onto the closed-loop simulator: sensor topics feed
// perception kernels (point-cloud generation, OctoMap, detection, tracking,
// localization) whose compute cost is charged on the core-limited executor;
// planning kernels produce smoothed trajectories; the control stage tracks
// them and issues velocity commands to the flight controller. The workloads
// register themselves with package core; importing this package (even blank)
// makes them available to core.Run.
package workloads

import (
	"time"

	"mavbench/internal/actuation"
	"mavbench/internal/compute"
	"mavbench/internal/control"
	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/geom"
	"mavbench/internal/octomap"
	"mavbench/internal/physics"
	"mavbench/internal/planning"
	"mavbench/internal/pointcloud"
	"mavbench/internal/ros"
	"mavbench/internal/sensors"
	"mavbench/internal/sim"
	"mavbench/internal/slam"
)

// navigator is the shared perception/planning/control pipeline used by the
// three occupancy-map workloads (package delivery, 3-D mapping, search and
// rescue): it maintains the OctoMap from depth images, runs localization,
// plans collision-free smoothed trajectories on demand, validates them as the
// map evolves, and tracks them by issuing velocity commands.
type navigator struct {
	s *sim.Simulator
	p core.Params

	octo       *octomap.Map
	fineRes    float64
	coarseRes  float64
	currentRes float64

	localizer slam.Localizer
	estimate  slam.Estimate

	planner planning.Planner
	tracker *control.Tracker

	// planning state
	planning     bool
	pendingGoal  geom.Vec3
	onGoal       func()
	lastMinDepth float64

	// perception latency tracking for the velocity bound
	sensorPeriod float64

	// statistics
	replans int
}

// newNavigator builds the pipeline and subscribes its nodes.
func newNavigator(s *sim.Simulator, p core.Params) (*navigator, error) {
	loc, err := slam.New(p.Localizer, p.Seed+7)
	if err != nil {
		return nil, err
	}
	planner, err := planning.NewPlanner(p.Planner)
	if err != nil {
		return nil, err
	}
	n := &navigator{
		s:            s,
		p:            p,
		fineRes:      p.OctomapResolution,
		coarseRes:    p.CoarseResolution,
		currentRes:   p.OctomapResolution,
		localizer:    loc,
		planner:      planner,
		tracker:      control.NewTracker(control.DefaultTrackerConfig()),
		sensorPeriod: 1 / sim.DepthCameraRateHz,
		lastMinDepth: 1e9,
	}
	n.octo = octomap.New(n.currentRes, s.World().Bounds)
	// Hand the map's chunks back to the shared pool once the run is over and
	// its report extracted; the navigator is the map's only owner.
	s.OnTeardown(func() { n.octo.Release() })
	n.wire()
	return n, nil
}

func (n *navigator) wire() {
	g := n.s.Graph()

	// Perception: depth image -> point cloud -> OctoMap insertion.
	perception := g.Node("perception")
	perception.Subscribe(sim.TopicDepthImage, 2, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		img := msg.(*sensors.DepthImage)
		return n.integrateDepth(img)
	})

	// Localization runs off the GPS topic regardless of the chosen kernel
	// (ground truth and SLAM also publish at that rate in the benchmark).
	localization := g.Node("localization")
	localization.Subscribe(sim.TopicGPS, 1, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		return n.localize()
	})

	// Control: path tracking + command issue at 10 Hz.
	n.s.Engine().Every(des.Seconds(0.1), "control/tick", func(*des.Engine) {
		n.s.Graph().Executor().Submit("path_tracking", func(now time.Duration) ros.CallbackResult {
			n.trackStep()
			return ros.CallbackResult{
				Cost:   n.s.Cost().MustKernelTime(compute.KernelPathTracking),
				Kernel: compute.KernelPathTracking,
			}
		}, nil)
	})

	// Trajectory validation (collision check) at 2 Hz.
	n.s.Engine().Every(des.Seconds(0.5), "planning/collision_check", func(*des.Engine) {
		n.s.Graph().Executor().Submit("collision_check", func(now time.Duration) ros.CallbackResult {
			n.validateTrajectory()
			return ros.CallbackResult{
				Cost:   n.s.Cost().MustKernelTime(compute.KernelCollisionCheck),
				Kernel: compute.KernelCollisionCheck,
			}
		}, nil)
	})
}

func (n *navigator) integrateDepth(img *sensors.DepthImage) ros.CallbackResult {
	// Dynamic OctoMap resolution (energy case study): fine near obstacles,
	// coarse in open space.
	if minD, ok := img.MinDepth(); ok {
		n.lastMinDepth = minD
	} else {
		n.lastMinDepth = 1e9
	}
	if n.p.DynamicResolution {
		want := n.coarseRes
		if n.lastMinDepth < 6 {
			want = n.fineRes
		}
		if want != n.currentRes {
			old := n.octo
			n.octo = old.Rebuild(want)
			// Rebuild has fully read the old map; recycle its chunks.
			old.Release()
			n.currentRes = want
			n.s.Recorder().Count("resolution_switches", 1)
		}
	}

	intr := n.s.DepthCamera().Intrinsics()
	cloud := pointcloud.FromDepthImage(img, intr, pointcloud.Options{Stride: 2, MaxRange: intr.MaxRange, MinRange: 0.3})
	// The frame is fully consumed (MinDepth + back-projection above); hand
	// its pixel buffer back to the camera for the next capture.
	n.s.DepthCamera().Recycle(img)
	filtered := pointcloud.VoxelFilter(cloud, n.currentRes)
	n.octo.InsertPointCloud(filtered.Origin, filtered.Points, intr.MaxRange)

	pcCost := n.s.Cost().MustKernelTime(compute.KernelPointCloud)
	octoCost := n.s.Cost().OctomapInsertTime(scaledPoints(cloud.Len()), n.currentRes)
	// Both clouds are fully consumed; recycle their point buffers.
	filtered.Release()
	cloud.Release()
	n.s.Recorder().Count("octomap_inserts", 1)
	n.s.Recorder().RecordKernel(compute.KernelPointCloud, pcCost)
	return ros.CallbackResult{Cost: pcCost + octoCost, Kernel: compute.KernelOctomap}
}

// scaledPoints converts the simulator's decimated cloud size into the
// full-frame point count the cost model is calibrated for (the real pipeline
// processes a 640x480 image; the simulator ray-casts a coarser grid).
func scaledPoints(simPoints int) int {
	const upscale = 12
	return simPoints * upscale
}

func (n *navigator) localize() ros.CallbackResult {
	state := n.s.TrueState()
	dt := 1 / sim.GPSRateHz
	n.estimate = n.localizer.Localize(state.Pose(), state.Velocity, dt, n.s.Now())
	if n.estimate.Error > 0 {
		n.s.Recorder().Observe("localization_error_m", n.estimate.Error)
	}
	if !n.estimate.Healthy {
		n.s.Recorder().Count("localization_failures", 1)
	}
	kernel := compute.KernelLocalizeGPS
	cost := n.s.Cost().MustKernelTime(kernel)
	if n.localizer.Name() == "orb_slam2" {
		kernel = compute.KernelLocalizeSLAM
		cost = n.s.Cost().SLAMTime(1000)
	}
	return ros.CallbackResult{Cost: cost, Kernel: kernel}
}

// pose returns the best current pose estimate (falling back to ground truth
// before the first localization tick).
func (n *navigator) pose() geom.Pose {
	if n.estimate.Timestamp > 0 {
		return n.estimate.Pose
	}
	return n.s.TrueState().Pose()
}

// perceptionLatency estimates the pixel-to-map latency that bounds the safe
// flight velocity (paper Equation 2): one sensor period plus the mean OctoMap
// integration time observed so far.
func (n *navigator) perceptionLatency() float64 {
	mean := n.s.Recorder().KernelMean(compute.KernelOctomap)
	if mean == 0 {
		mean = n.s.Cost().MustKernelTime(compute.KernelOctomap)
	}
	return n.sensorPeriod + mean.Seconds()
}

// maxSafeVelocity converts the perception latency into a velocity bound
// (paper Equation 2). The stopping budget is a conservative fraction of the
// depth-sensor range: obstacles enter the map only once they are within
// range, and the vehicle must be able to brake inside the freshly observed
// free space.
func (n *navigator) maxSafeVelocity() float64 {
	params := n.s.Vehicle().Params
	stoppingBudget := n.s.DepthCamera().Intrinsics().MaxRange * 0.35
	v := physics.MaxSafeVelocity(n.perceptionLatency(), stoppingBudget, params.MaxAcceleration)
	if v > params.MaxHorizontalVelocity*0.8 {
		v = params.MaxHorizontalVelocity * 0.8
	}
	if v < 0.5 {
		v = 0.5
	}
	return v
}

// planTo requests a collision-free smoothed trajectory to goal. The vehicle
// hovers while the planning job occupies the executor; onDone (optional) runs
// once the trajectory is installed (or planning failed).
func (n *navigator) planTo(goal geom.Vec3, onDone func(found bool)) {
	if n.planning {
		return
	}
	n.planning = true
	n.pendingGoal = goal
	n.tracker.Stop()
	_ = n.s.Hover()

	kernel := compute.KernelShortestPath
	var found bool
	n.s.Graph().Executor().Submit("motion_planner", func(now time.Duration) ros.CallbackResult {
		checker := planning.NewMapChecker(n.octo, n.s.World().Bounds.Min.Z+0.8, n.s.World().Bounds.Max.Z-0.5)
		req := planning.Request{
			Start:         n.pose().Position,
			Goal:          goal,
			Bounds:        n.s.World().Bounds,
			Radius:        n.s.VehicleRadius() + n.currentRes*0.5,
			MaxIterations: 6000,
			StepSize:      3,
			GoalTolerance: 1.5,
			Seed:          n.p.Seed + int64(n.replans),
		}
		result := n.planner.Plan(req, checker)
		found = result.Found
		cost := n.s.Cost().PlanningTime(kernel, result.Checks)
		if result.Found {
			short := planning.Shortcut(result.Path, checker, req.Radius, 150, n.p.Seed)
			opts := planning.DefaultSmoothingOptions()
			opts.MaxVelocity = n.maxSafeVelocity()
			opts.MaxAcceleration = n.s.Vehicle().Params.MaxAcceleration
			traj := planning.Smooth(short, opts)
			// Keep the tracker's feedback authority within the same safe
			// velocity envelope the trajectory was planned for.
			n.tracker.Config.MaxVelocity = opts.MaxVelocity * 1.1
			n.tracker.SetTrajectory(traj, n.s.Now())
			cost += n.s.Cost().MustKernelTime(compute.KernelSmoothing)
			n.s.Recorder().RecordKernel(compute.KernelSmoothing, n.s.Cost().MustKernelTime(compute.KernelSmoothing))
		} else {
			n.s.Recorder().Count("planning_failures", 1)
		}
		// Cloud offloading reroutes the planning kernel when configured; the
		// request payload is the serialized OctoMap region, the response the
		// trajectory.
		total := n.s.KernelTime(kernel, cost, n.octo.MemoryBytes()/4, 32*1024)
		return ros.CallbackResult{Cost: total, Kernel: kernel}
	}, func() {
		n.planning = false
		if onDone != nil {
			onDone(found)
		}
	})
}

// trackStep advances the control stage by one tick.
func (n *navigator) trackStep() {
	if n.s.MissionDone() {
		return
	}
	cmd, done := n.tracker.Update(n.pose(), n.s.Now())
	if done {
		_ = n.s.Hover()
		return
	}
	if cmd.Hover {
		_ = n.s.Hover()
		return
	}
	// Localization failure: slow to a hover so SLAM can relocalize (the
	// paper's localization-failure velocity effect).
	if !n.estimate.Healthy && n.estimate.Timestamp > 0 {
		_ = n.s.Hover()
		return
	}
	_ = n.s.IssueVelocity(cmd.Velocity, cmd.YawRate)
}

// validateTrajectory re-checks the remaining trajectory against the evolving
// map and triggers a re-plan when it now collides (new obstacles observed, or
// noise-inflated obstacles intersecting it).
func (n *navigator) validateTrajectory() {
	if !n.tracker.Active() || n.planning || n.s.MissionDone() {
		return
	}
	traj := n.tracker.Trajectory()
	if traj.Empty() {
		return
	}
	pos := n.pose().Position
	radius := n.s.VehicleRadius()
	// Check a handful of samples ahead of the vehicle.
	horizon := traj.Duration()
	collision := false
	for f := 0.0; f <= 1.0; f += 0.1 {
		p := traj.Sample(f * horizon).Position
		if p.Dist(pos) > 25 {
			continue
		}
		if n.octo.CollidesSphere(p, radius, false) {
			collision = true
			break
		}
	}
	if collision {
		n.replans++
		n.s.Recorder().Count("replans", 1)
		goal := n.pendingGoal
		n.planTo(goal, nil)
	}
}

// distanceToGoal returns the straight-line distance from the current estimate
// to the pending goal.
func (n *navigator) distanceToGoal(goal geom.Vec3) float64 {
	return n.pose().Position.Dist(goal)
}

// mapKnownFraction exposes the map completion metric for the mapping
// workloads.
func (n *navigator) mapKnownFraction() float64 { return n.octo.KnownFraction() }

// startFlight arms and takes off, invoking ready once the flight controller
// reaches offboard mode.
func startFlight(s *sim.Simulator, ready func()) error {
	if err := s.Arm(); err != nil {
		return err
	}
	if err := s.Takeoff(); err != nil {
		return err
	}
	var poll func(*des.Engine)
	poll = func(e *des.Engine) {
		if s.MissionDone() {
			return
		}
		if s.FCMode() == actuation.ModeOffboard {
			ready()
			return
		}
		e.Schedule(des.Seconds(0.2), "mission/wait_takeoff", poll)
	}
	s.Engine().Schedule(des.Seconds(0.2), "mission/wait_takeoff", poll)
	return nil
}

// landAndFinish commands landing and completes the mission once touched down.
func landAndFinish(s *sim.Simulator, success bool, reason string) {
	_ = s.Land()
	var poll func(*des.Engine)
	poll = func(e *des.Engine) {
		if s.MissionDone() {
			return
		}
		if s.FCMode() == actuation.ModeLanded {
			s.CompleteMission(success, reason)
			return
		}
		e.Schedule(des.Seconds(0.2), "mission/wait_landing", poll)
	}
	s.Engine().Schedule(des.Seconds(0.2), "mission/wait_landing", poll)
}
