package workloads

import (
	"mavbench/internal/core"
	"mavbench/internal/detection"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/ros"
	"mavbench/internal/sensors"
	"mavbench/internal/sim"
)

// SearchAndRescue augments the 3-D mapping exploration loop with an object
// detection kernel in the perception stage: the MAV explores the unknown
// disaster area until the survivor is detected (or the whole area has been
// swept without success).
type SearchAndRescue struct{}

func init() { core.Register(SearchAndRescue{}) }

// Name implements core.Workload.
func (SearchAndRescue) Name() string { return "search_and_rescue" }

// Description implements core.Workload.
func (SearchAndRescue) Description() string {
	return "explore a disaster area until a survivor is detected"
}

// World implements core.Workload.
func (SearchAndRescue) World(p core.Params) (*env.World, geom.Vec3, error) {
	w, err := buildEnvironment(p, "disaster")
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	// Cross-matrix runs (search and rescue over an urban or farm scenario)
	// need a target to find; worlds that already carry one are untouched.
	env.EnsureSurvivor(w)
	start := findClearSpot(w, geom.V3(w.Bounds.Min.X+4, w.Bounds.Min.Y+4, 0), 2.0)
	return w, start, nil
}

// Setup implements core.Workload.
func (SearchAndRescue) Setup(s *sim.Simulator, p core.Params) error {
	detectorName := p.Detector
	if detectorName == "" || detectorName == "yolo" {
		// The paper's SAR configuration uses the HOG people detector.
		detectorName = "hog"
	}
	det, err := detection.New(detectorName, p.Seed+17)
	if err != nil {
		return err
	}

	onFrame := func(nav *navigator, msg ros.Message) (bool, ros.CallbackResult) {
		frame := msg.(*sensors.Frame)
		dets := det.Detect(frame)
		cost := s.Cost().DetectionTime(det.KernelName(), frame.Intrinsics.Pixels())
		res := ros.CallbackResult{Cost: cost, Kernel: det.KernelName()}
		if best, ok := detection.BestDetection(dets, "survivor"); ok {
			s.Recorder().Count("detections", 1)
			s.Recorder().Observe("detection_distance_m", best.Box.Distance)
			return true, res
		}
		return false, res
	}

	cfg := explorationConfig{
		targetKnownFraction: mappingTarget(p) + 0.2,
		onFrame:             onFrame,
		stopOnDetection:     true,
	}
	// Swarm search and rescue: each drone sweeps its own X-slab of the area.
	// The volumetric target scales with the sector share — a drone has "swept
	// its sector" once its share of the volume is known.
	if n := s.VehicleCount(); n > 1 {
		sector := swarmSector(s.World().Bounds, s.VehicleIndex(), n)
		cfg.region = &sector
		cfg.targetKnownFraction /= float64(n)
	}
	return setupExploration(s, p, cfg)
}
