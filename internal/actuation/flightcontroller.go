// Package actuation models the MAV's flight controller (FC).
//
// The FC is the autopilot layer (a Pixhawk running PX4, or AirSim's software
// FC) that accepts high-level commands from the companion computer — arm,
// take off, fly this velocity, land — and lowers them into the stabilized
// rotor commands the airframe executes. This reproduction keeps the FC as an
// explicit state machine between the companion computer (package ros /
// workloads) and the physics model (package physics): each command is checked
// against the FC's mode logic, and velocity commands become setpoints on the
// quadrotor model. The mission phases it walks through (arming, takeoff,
// flight, landing) are also what the energy model's Figure 9b timeline
// reports.
package actuation

import (
	"fmt"

	"mavbench/internal/energy"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
)

// Mode is the flight controller's top-level state.
type Mode int

const (
	// ModeDisarmed: rotors stopped, on the ground.
	ModeDisarmed Mode = iota
	// ModeArmed: rotors idling, ready to take off.
	ModeArmed
	// ModeTakeoff: climbing to the commanded altitude.
	ModeTakeoff
	// ModeOffboard: following velocity setpoints from the companion computer.
	ModeOffboard
	// ModeLanding: descending to touch down.
	ModeLanding
	// ModeLanded: mission finished, rotors stopped.
	ModeLanded
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDisarmed:
		return "disarmed"
	case ModeArmed:
		return "armed"
	case ModeTakeoff:
		return "takeoff"
	case ModeOffboard:
		return "offboard"
	case ModeLanding:
		return "landing"
	case ModeLanded:
		return "landed"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// FlightPhase maps the FC mode onto the energy model's mission phases.
func (m Mode) FlightPhase() energy.FlightPhase {
	switch m {
	case ModeDisarmed, ModeArmed:
		return energy.PhaseArming
	case ModeTakeoff:
		return energy.PhaseTakeoff
	case ModeOffboard:
		return energy.PhaseFlying
	case ModeLanding:
		return energy.PhaseLanding
	default:
		return energy.PhaseLanded
	}
}

// The benchmark's fixed FC tuning.
const (
	takeoffAltitude = 5.0 // m above the ground
	takeoffSpeed    = 2.0 // m/s climb
	landingSpeed    = 1.0 // m/s descent
	// altitudeTolerance decides when takeoff is complete.
	altitudeTolerance = 0.3
)

// FlightController converts high-level commands into quadrotor velocity
// setpoints.
type FlightController struct {
	vehicle *physics.Quadrotor
	mode    Mode
	groundZ float64

	velocity geom.Vec3
	yawRate  float64
}

// New creates a flight controller bound to a vehicle. groundZ is the landing
// altitude.
func New(vehicle *physics.Quadrotor, groundZ float64) *FlightController {
	return &FlightController{vehicle: vehicle, groundZ: groundZ}
}

// Mode returns the current FC mode.
func (fc *FlightController) Mode() Mode { return fc.mode }

// Arm switches the FC from disarmed to armed.
func (fc *FlightController) Arm() error {
	if fc.mode != ModeDisarmed {
		return fmt.Errorf("actuation: cannot arm from %v", fc.mode)
	}
	fc.mode = ModeArmed
	return nil
}

// Takeoff begins the climb to the takeoff altitude.
func (fc *FlightController) Takeoff() error {
	if fc.mode != ModeArmed {
		return fmt.Errorf("actuation: cannot take off from %v", fc.mode)
	}
	fc.mode = ModeTakeoff
	fc.vehicle.Takeoff()
	return nil
}

// Land begins the descent.
func (fc *FlightController) Land() error {
	if fc.mode != ModeOffboard && fc.mode != ModeTakeoff {
		return fmt.Errorf("actuation: cannot land from %v", fc.mode)
	}
	fc.mode = ModeLanding
	return nil
}

// SetVelocity installs an offboard velocity setpoint. The FC transitions to
// offboard mode automatically once takeoff has completed; a setpoint given
// during takeoff is buffered and takes effect then.
//
// The FC holds setpoints in single precision, as the MAVLink link between
// companion computer and autopilot carries them; the golden traces pin that
// rounding.
func (fc *FlightController) SetVelocity(v geom.Vec3, yawRate float64) error {
	if fc.mode != ModeOffboard && fc.mode != ModeTakeoff {
		return fmt.Errorf("actuation: velocity setpoint rejected in %v", fc.mode)
	}
	fc.velocity = geom.V3(float64(float32(v.X)), float64(float32(v.Y)), float64(float32(v.Z)))
	fc.yawRate = float64(float32(yawRate))
	return nil
}

// Step advances the FC's mode logic and pushes the current command to the
// vehicle model; the caller then advances the physics by the same dt.
func (fc *FlightController) Step(dt float64) {
	state := fc.vehicle.State()
	switch fc.mode {
	case ModeTakeoff:
		target := fc.groundZ + takeoffAltitude
		if state.Position.Z >= target-altitudeTolerance {
			fc.mode = ModeOffboard
			fc.vehicle.SetCommand(physics.Command{Hover: true})
			return
		}
		fc.vehicle.SetCommand(physics.Command{Velocity: geom.V3(0, 0, takeoffSpeed)})
	case ModeOffboard:
		fc.vehicle.SetCommand(physics.Command{Velocity: fc.velocity, YawRate: fc.yawRate})
	case ModeLanding:
		if state.Position.Z <= fc.groundZ+0.1 {
			fc.vehicle.ForceLand(fc.groundZ)
			fc.mode = ModeLanded
			return
		}
		fc.vehicle.SetCommand(physics.Command{Velocity: geom.V3(0, 0, -landingSpeed)})
	default:
		fc.vehicle.SetCommand(physics.Command{Hover: true})
	}
}
