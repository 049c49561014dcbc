package workloads

import (
	"time"

	"mavbench/internal/compute"
	"mavbench/internal/control"
	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/planning"
	"mavbench/internal/ros"
	"mavbench/internal/sim"
)

// Scanning is the agricultural survey workload: the MAV covers a rectangular
// field with a lawnmower path at a fixed altitude while collecting sensor
// data. Planning happens once at mission start (its cost is amortised over
// the mission, which is why the paper observes almost no compute sensitivity
// for this workload).
type Scanning struct{}

func init() { core.Register(Scanning{}) }

// Name implements core.Workload.
func (Scanning) Name() string { return "scanning" }

// Description implements core.Workload.
func (Scanning) Description() string {
	return "survey a rectangular field with a lawnmower coverage path"
}

// World implements core.Workload.
func (Scanning) World(p core.Params) (*env.World, geom.Vec3, error) {
	w, err := buildEnvironment(p, "farm")
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	start := findClearSpot(w, geom.V3(w.Bounds.Min.X+5, w.Bounds.Min.Y+5, 0), 2.0)
	return w, start, nil
}

// Setup implements core.Workload.
func (Scanning) Setup(s *sim.Simulator, p core.Params) error {
	tracker := control.NewTracker(control.DefaultTrackerConfig())
	// Survey above the tallest obstacles (agricultural scans assume an
	// obstacle-free altitude, as the paper notes).
	altitude := 20.0
	if ceiling := s.World().Bounds.Max.Z - 5; altitude > ceiling {
		altitude = ceiling
	}
	for _, o := range s.World().Obstacles() {
		if o.Box.Max.Z+3 > altitude {
			altitude = o.Box.Max.Z + 3
		}
	}
	area := s.World().Bounds
	surveyArea := geom.NewAABB(
		geom.V3(area.Min.X+5, area.Min.Y+5, 0),
		geom.V3(area.Max.X-5, area.Max.Y-5, 0),
	)
	spacing := 18.0 * clampScale(p.WorldScale)
	if spacing < 6 {
		spacing = 6
	}

	// Control loop: climb out vertically, then track the coverage trajectory.
	climbed := false
	s.Engine().Every(des.Seconds(0.1), "scanning/control", func(*des.Engine) {
		s.Graph().Executor().Submit("path_tracking", func(now time.Duration) ros.CallbackResult {
			if s.MissionDone() {
				return ros.CallbackResult{Kernel: compute.KernelPathTracking}
			}
			// The launch spot is clear of obstacles but the first survey lane
			// may not be reachable in a straight line from low altitude, so
			// hold a pure vertical climb until the obstacle-free survey
			// altitude is reached (the smoothed trajectory would otherwise
			// cut the corner through whatever the seed grew nearby).
			if !climbed {
				if s.TrueState().Position.Z < altitude-0.5 {
					_ = s.IssueVelocity(geom.V3(0, 0, s.Vehicle().Params.MaxVerticalVelocity*0.75), 0)
					return ros.CallbackResult{
						Cost:   s.Cost().MustKernelTime(compute.KernelPathTracking),
						Kernel: compute.KernelPathTracking,
					}
				}
				climbed = true
				// Re-anchor the time-parameterized trajectory at the climb's
				// end, otherwise the reference point has already advanced
				// through the climb's duration and the drone would chase a
				// point partway down the first lanes, skipping coverage.
				if tracker.Active() {
					tracker.SetTrajectory(tracker.Trajectory(), s.Now())
				}
			}
			cmd, done := tracker.Update(s.TrueState().Pose(), s.Now())
			switch {
			case done:
				landAndFinish(s, true, "")
			case cmd.Hover:
				_ = s.Hover()
			default:
				_ = s.IssueVelocity(cmd.Velocity, cmd.YawRate)
			}
			return ros.CallbackResult{
				Cost:   s.Cost().MustKernelTime(compute.KernelPathTracking),
				Kernel: compute.KernelPathTracking,
			}
		}, nil)
	})

	// Mission: take off, plan the lawnmower path once, follow it, land.
	return startFlight(s, func() {
		s.Graph().Executor().Submit("mission_planner", func(now time.Duration) ros.CallbackResult {
			// Plan from the point directly above the launch spot: the drone
			// climbs vertically to the obstacle-free survey altitude before
			// heading to the first lane, so no seed can place a tree inside
			// the climb-out corridor.
			climbOut := s.TrueState().Position
			climbOut.Z = altitude
			path := planning.Lawnmower(planning.LawnmowerRequest{
				Area:     surveyArea,
				Altitude: altitude,
				Spacing:  spacing,
				Start:    climbOut,
			})
			opts := planning.DefaultSmoothingOptions()
			opts.MaxVelocity = s.Vehicle().Params.MaxHorizontalVelocity * 0.75
			opts.MaxAcceleration = s.Vehicle().Params.MaxAcceleration
			traj := planning.Smooth(path, opts)
			tracker.SetTrajectory(traj, s.Now())
			s.Recorder().Count("coverage_path_length_m", path.Length())
			return ros.CallbackResult{
				Cost:   s.Cost().MustKernelTime(compute.KernelLawnmower),
				Kernel: compute.KernelLawnmower,
			}
		}, nil)
	})
}

// buildEnvironment resolves the run's environment through the scenario
// subsystem: the family comes from the named scenario, the Environment
// override or the workload default (in that order), and the difficulty knobs
// from the scenario grade, the continuous Difficulty override and any
// explicit knob overrides. A default run (no scenario, no overrides)
// reproduces the workload's classic world bit-for-bit — the contract pinned
// by env.TestBuildFamilyWorldDefaultKnobsMatchLegacy and the golden traces.
func buildEnvironment(p core.Params, def string) (*env.World, error) {
	return env.BuildFamilyWorld(p.ScenarioFamily(def), p.Seed, clampScale(p.WorldScale), p.EffectiveKnobs())
}

func clampScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}
