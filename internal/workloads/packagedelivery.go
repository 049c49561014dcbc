package workloads

import (
	"mavbench/internal/actuation"
	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
)

// PackageDelivery is the obstacle-course delivery workload: navigate an
// obstacle-filled environment to a destination, deliver the package, and fly
// back to the origin. The perception stage maintains an OctoMap from depth
// images, the planning stage computes smoothed collision-free paths and
// re-plans when newly observed (or noise-inflated) obstacles invalidate the
// current trajectory.
type PackageDelivery struct{}

func init() { core.Register(PackageDelivery{}) }

// Name implements core.Workload.
func (PackageDelivery) Name() string { return "package_delivery" }

// Description implements core.Workload.
func (PackageDelivery) Description() string {
	return "deliver a package across an obstacle-filled environment and return"
}

// World implements core.Workload.
func (PackageDelivery) World(p core.Params) (*env.World, geom.Vec3, error) {
	w, err := buildEnvironment(p, "urban")
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	// Delivery pad in the far quadrant of the map, at a clear spot.
	pad := findClearSpot(w, geom.V3(w.Bounds.Max.X*0.7, w.Bounds.Max.Y*0.7, 0.1), 2.0)
	w.AddObstacle(env.KindDeliveryPad, geom.BoxAt(geom.V3(pad.X, pad.Y, 0.1), geom.V3(1, 1, 0.2)), "delivery_pad")
	start := findClearSpot(w, geom.V3(w.Bounds.Min.X*0.7, w.Bounds.Min.Y*0.7, 0), 2.0)
	start.Z = 0
	return w, start, nil
}

// Setup implements core.Workload.
func (PackageDelivery) Setup(s *sim.Simulator, p core.Params) error {
	nav, err := newNavigator(s, p)
	if err != nil {
		return err
	}

	// Mission targets.
	var padPos geom.Vec3
	for _, o := range s.World().ObstaclesOfKind(env.KindDeliveryPad) {
		padPos = o.Center()
	}
	cruiseAlt := deliveryCorridorAltitude(s)
	deliveryGoal := geom.V3(padPos.X, padPos.Y, cruiseAlt)
	homeGoal := geom.V3(s.TrueState().Position.X, s.TrueState().Position.Y, cruiseAlt)

	const (
		phaseOutbound = iota
		phaseDelivering
		phaseReturn
		phaseDone
	)
	phase := phaseOutbound
	deliverUntil := 0.0

	requestPlan := func(goal geom.Vec3) {
		nav.planTo(goal, func(found bool) {
			if !found {
				s.Recorder().Count("planning_failures_mission", 1)
			}
		})
	}

	// Mission supervisor at 1 Hz: drives the phase machine and re-issues
	// plans if the navigator is idle (e.g. after a failed attempt).
	s.Engine().Every(des.Seconds(1), "delivery/mission", func(*des.Engine) {
		if s.MissionDone() || s.FCMode() != actuation.ModeOffboard {
			return
		}
		switch phase {
		case phaseOutbound:
			if nav.distanceToGoal(deliveryGoal) < 3 {
				phase = phaseDelivering
				deliverUntil = s.Now() + 3 // hover to drop the package
				nav.tracker.Stop()
				_ = s.Hover()
				s.Recorder().Count("packages_delivered", 1)
				return
			}
			if !nav.tracker.Active() && !nav.planning {
				requestPlan(deliveryGoal)
			}
		case phaseDelivering:
			if s.Now() >= deliverUntil {
				phase = phaseReturn
				requestPlan(homeGoal)
			}
		case phaseReturn:
			if nav.distanceToGoal(homeGoal) < 3 {
				phase = phaseDone
				landAndFinish(s, true, "")
				return
			}
			if !nav.tracker.Active() && !nav.planning {
				requestPlan(homeGoal)
			}
		}
	})

	return startFlight(s, func() {
		requestPlan(deliveryGoal)
	})
}

// deliveryCorridorAltitude deconflicts multi-drone deliveries by assigning
// each drone of a fleet its own cruise-altitude layer: drone 0 keeps the
// classic 6 m corridor, each further drone stacks 2.5 m higher (clamped under
// the world ceiling). All drones serve the same pad, but their transit
// corridors never share an altitude band, so head-on traffic between the
// depot and the pad cannot meet. Single-vehicle runs always get 6 m.
func deliveryCorridorAltitude(s *sim.Simulator) float64 {
	const base, layer = 6.0, 2.5
	alt := base + layer*float64(s.VehicleIndex())
	if ceiling := s.World().Bounds.Max.Z - 2; alt > ceiling {
		alt = ceiling
	}
	return alt
}
