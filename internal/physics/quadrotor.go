// Package physics models the MAV's rigid-body motion.
//
// AirSim integrates a full quadrotor model at 1 kHz; MAVBench's evaluation,
// however, only relies on the kinematic envelope of the vehicle — how fast it
// can fly, how hard it can accelerate and brake, and how long it takes to
// stop (Equation 2 of the paper). This package therefore implements a
// velocity-command point-mass model with acceleration and velocity limits and
// drag in still air, which is the same abstraction level AirSim's "simple
// flight" velocity API exposes to the companion computer.
package physics

import (
	"math"

	"mavbench/internal/geom"
)

// Params describes the simulated airframe. Defaults model a DJI Matrice
// 100-class quadrotor, the vehicle the paper uses for its energy model.
type Params struct {
	MassKg float64
	// MaxHorizontalVelocity is the mechanical top speed in m/s.
	MaxHorizontalVelocity float64
	// MaxVerticalVelocity is the climb/descent limit in m/s.
	MaxVerticalVelocity float64
	// MaxAcceleration is the maximum commanded acceleration magnitude
	// (m/s^2); the paper's Equation 2 uses this to derive stopping distance.
	MaxAcceleration float64
	// MaxYawRate limits heading changes, rad/s.
	MaxYawRate float64
	// DragCoefficient is a linear velocity drag term applied when coasting.
	DragCoefficient float64
	// RadiusM is the vehicle's bounding-sphere radius used for collision
	// checks; the paper quotes a 0.65 m diagonal width.
	RadiusM float64
}

// DefaultParams returns a DJI Matrice 100-class parameter set.
func DefaultParams() Params {
	return Params{
		MassKg:                3.6,
		MaxHorizontalVelocity: 10,
		MaxVerticalVelocity:   4,
		MaxAcceleration:       3.43, // ~0.35 g, a typical autonomy-mode limit
		MaxYawRate:            math.Pi / 2,
		DragCoefficient:       0.25,
		RadiusM:               0.4,
	}
}

// State is the vehicle's kinematic state.
type State struct {
	Position     geom.Vec3
	Velocity     geom.Vec3
	Acceleration geom.Vec3
	Yaw          float64
	Airborne     bool
}

// Pose returns the state's pose.
func (s State) Pose() geom.Pose { return geom.NewPose(s.Position, s.Yaw) }

// Speed returns the magnitude of the velocity.
func (s State) Speed() float64 { return s.Velocity.Norm() }

// Quadrotor is the point-mass vehicle model. It consumes velocity commands
// (the interface the flight controller exposes to the companion computer) and
// integrates the state with acceleration limits and drag.
type Quadrotor struct {
	Params Params

	state   State
	command Command
}

// Command is a velocity-and-yaw setpoint, the unit of actuation in MAVBench's
// control stage.
type Command struct {
	Velocity geom.Vec3
	YawRate  float64
	// Hover forces a zero-velocity setpoint regardless of Velocity.
	Hover bool
}

// NewQuadrotor creates a vehicle at the given initial position, landed.
func NewQuadrotor(params Params, start geom.Vec3) *Quadrotor {
	return &Quadrotor{
		Params: params,
		state:  State{Position: start},
	}
}

// State returns a copy of the current state.
func (q *Quadrotor) State() State { return q.state }

// SetCommand installs the current velocity setpoint. Commands persist until
// replaced, exactly like AirSim's moveByVelocity API.
func (q *Quadrotor) SetCommand(c Command) { q.command = c }

// Command returns the currently active setpoint.
func (q *Quadrotor) Command() Command { return q.command }

// ForceLand puts the vehicle on the ground at its current horizontal
// position, zeroing velocity.
func (q *Quadrotor) ForceLand(groundZ float64) {
	q.state.Position.Z = groundZ
	q.state.Velocity = geom.Vec3{}
	q.state.Acceleration = geom.Vec3{}
	q.state.Airborne = false
}

// Takeoff marks the vehicle airborne; actual climbing is driven by velocity
// commands.
func (q *Quadrotor) Takeoff() { q.state.Airborne = true }

// Step integrates the model by dt seconds and returns the new state.
func (q *Quadrotor) Step(dt float64) State {
	if dt <= 0 {
		return q.state
	}

	target := q.command.Velocity
	if q.command.Hover || !q.state.Airborne {
		target = geom.Vec3{}
	}
	// Clamp the commanded velocity to the airframe's envelope.
	target = clampVelocity(target, q.Params)

	// Acceleration needed to reach the target this step, limited by the
	// airframe's acceleration envelope.
	desiredAccel := target.Sub(q.state.Velocity).Scale(1 / dt)
	accel := desiredAccel.ClampNorm(q.Params.MaxAcceleration)

	// Drag opposes the velocity when coasting.
	if target.IsZero() && q.state.Airborne {
		accel = accel.Add(q.state.Velocity.Scale(-q.Params.DragCoefficient))
		accel = accel.ClampNorm(q.Params.MaxAcceleration)
	}

	q.state.Acceleration = accel
	q.state.Velocity = q.state.Velocity.Add(accel.Scale(dt))
	q.state.Velocity = clampVelocity(q.state.Velocity, q.Params)
	if !q.state.Airborne {
		q.state.Velocity = geom.Vec3{}
	}
	q.state.Position = q.state.Position.Add(q.state.Velocity.Scale(dt))

	// Yaw dynamics.
	yawRate := geom.Clamp(q.command.YawRate, -q.Params.MaxYawRate, q.Params.MaxYawRate)
	q.state.Yaw = geom.WrapAngle(q.state.Yaw + yawRate*dt)
	return q.state
}

func clampVelocity(v geom.Vec3, p Params) geom.Vec3 {
	h := v.Horiz().ClampNorm(p.MaxHorizontalVelocity)
	z := geom.Clamp(v.Z, -p.MaxVerticalVelocity, p.MaxVerticalVelocity)
	return geom.V3(h.X, h.Y, z)
}

// IsHovering reports whether the vehicle is airborne and essentially
// stationary — the condition the paper's "hover time" metric counts.
func (q *Quadrotor) IsHovering(speedThreshold float64) bool {
	if speedThreshold <= 0 {
		speedThreshold = 0.2
	}
	return q.state.Airborne && q.state.Speed() < speedThreshold
}

// MaxSafeVelocity implements the paper's Equation 2: the highest velocity at
// which the vehicle can still guarantee a collision-free stop given the
// perception-to-actuation latency processTime (seconds), the available
// stopping distance d (meters, e.g. the sensor range) and the maximum
// deceleration amax:
//
//	v_max = a_max * (sqrt(t^2 + 2 d / a_max) - t)
func MaxSafeVelocity(processTime, d, amax float64) float64 {
	if amax <= 0 || d <= 0 {
		return 0
	}
	if processTime < 0 {
		processTime = 0
	}
	return amax * (math.Sqrt(processTime*processTime+2*d/amax) - processTime)
}
