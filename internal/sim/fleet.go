// Fleet runner: every closed-loop mission runs here. N ≥ 1 independent
// simulators advance in lockstep over clones of one shared world; a
// single-drone mission is a fleet of one.
//
// The paper's methodology (MAVBench, Boroujerdian et al., MICRO 2018,
// Section III) is single-vehicle; the fleet extends it to N-drone missions
// while keeping the determinism contract intact. Each drone owns a complete
// Simulator — its own discrete-event engine, physics, flight controller,
// sensors, compute executor, battery and recorder — so per-drone compute and
// energy accounting is exactly the single-drone model. The fleet couples the
// timelines only at the physics quantum: every drone is advanced to the same
// virtual instant (in fixed drone order), then pairwise inter-vehicle sphere
// collision checks run on the ground-truth states. Because each engine is
// still single-threaded and the coupling is a pure function of drone order
// and positions, an N-drone run is as deterministic as N single-drone runs.
package sim

import (
	"fmt"

	"mavbench/internal/des"
	"mavbench/internal/telemetry"
)

// eventBudget bounds the events processed per drone: a safety net against
// runaway event loops.
const eventBudget = 50_000_000

// Fleet runs N simulators in lockstep over one shared mission timeline.
type Fleet struct {
	sims []*Simulator
}

// NewFleet builds a fleet from the given simulators (one per drone, in
// vehicle-index order). At least one simulator is required.
func NewFleet(sims ...*Simulator) (*Fleet, error) {
	if len(sims) == 0 {
		return nil, fmt.Errorf("sim: fleet needs at least one simulator")
	}
	for i, s := range sims {
		if s == nil {
			return nil, fmt.Errorf("sim: fleet simulator %d is nil", i)
		}
	}
	return &Fleet{sims: sims}, nil
}

// Run executes all drones until every mission is done (or timed out at its
// horizon) and returns the per-drone QoF reports in vehicle-index order.
func (f *Fleet) Run() ([]telemetry.Report, error) {
	for _, s := range f.sims {
		s.recorder.StartMission(s.Now())
	}
	// Every drone shares the physics step, so the lockstep quantum is that
	// step: no vehicle ever integrates across a collision-check boundary.
	quantum := des.Seconds(PhysicsStepS)

	for t := quantum; ; t += quantum {
		anyRunning := false
		for _, s := range f.sims {
			if s.missionDone || s.engine.Stopped() {
				continue
			}
			if err := s.engine.RunUntil(t); err != nil && err != des.ErrStopped {
				return f.finalReports(), err
			}
			if s.engine.Processed() > eventBudget {
				return f.finalReports(), fmt.Errorf("sim: drone %d exhausted event budget of %d at t=%v",
					s.cfg.VehicleIndex, eventBudget, s.engine.Now())
			}
			if s.missionDone || s.engine.Stopped() {
				continue
			}
			if s.engine.Now() < t {
				// The engine could not reach t: its queue drained or its
				// horizon blocks the next event. Either way the mission can
				// make no further progress — record the timeout now so the
				// drone drops out of the lockstep loop.
				s.recorder.EndMission(s.Now(), false, "mission timeout")
				s.missionDone = true
				continue
			}
			anyRunning = true
		}
		f.checkInterVehicleCollisions()
		if !anyRunning {
			break
		}
	}
	return f.finalReports(), nil
}

// checkInterVehicleCollisions performs the pairwise sphere test on all
// airborne drones at the current lockstep instant. A contact fails both
// missions — shared airspace makes mid-airs symmetric — and is counted
// separately from obstacle strikes under "inter_vehicle_collisions".
func (f *Fleet) checkInterVehicleCollisions() {
	for i := 0; i < len(f.sims); i++ {
		si := f.sims[i]
		if si.missionDone {
			continue
		}
		sti := si.vehicle.State()
		if !sti.Airborne {
			continue
		}
		for j := i + 1; j < len(f.sims); j++ {
			sj := f.sims[j]
			if sj.missionDone {
				continue
			}
			stj := sj.vehicle.State()
			if !stj.Airborne {
				continue
			}
			minDist := si.vehicle.Params.RadiusM + sj.vehicle.Params.RadiusM
			if sti.Position.Sub(stj.Position).Norm() <= minDist {
				for _, s := range []*Simulator{si, sj} {
					s.recorder.Count("inter_vehicle_collisions", 1)
					s.CompleteMission(false, "inter-vehicle collision")
				}
			}
		}
	}
}

// finalReports closes out any drone whose mission is still open (engine
// error paths) and extracts the per-drone reports.
func (f *Fleet) finalReports() []telemetry.Report {
	reports := make([]telemetry.Report, len(f.sims))
	for i, s := range f.sims {
		if !s.missionDone {
			s.recorder.EndMission(s.Now(), false, "mission timeout")
			s.missionDone = true
		}
		reports[i] = s.recorder.Report(s.Now())
	}
	return reports
}
