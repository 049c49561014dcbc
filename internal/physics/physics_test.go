package physics

import (
	"math"
	"testing"
	"testing/quick"

	"mavbench/internal/geom"
)

func TestGroundedVehicleDoesNotMove(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(0, 0, 0))
	q.SetCommand(Command{Velocity: geom.V3(5, 0, 0)})
	for i := 0; i < 100; i++ {
		q.Step(0.02)
	}
	if q.State().Position.Dist(geom.V3(0, 0, 0)) > 1e-9 {
		t.Errorf("grounded vehicle moved to %v", q.State().Position)
	}
	if q.State().Airborne {
		t.Error("vehicle should not be airborne")
	}
}

func TestVelocityCommandReachesSetpoint(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(0, 0, 5))
	q.Takeoff()
	q.SetCommand(Command{Velocity: geom.V3(4, 0, 0)})
	for i := 0; i < 500; i++ {
		q.Step(0.02)
	}
	s := q.State()
	if math.Abs(s.Velocity.X-4) > 0.1 {
		t.Errorf("velocity = %v, want ~4 m/s along X", s.Velocity)
	}
	if s.Position.X <= 0 {
		t.Errorf("vehicle did not move forward: %v", s.Position)
	}
}

func TestVelocityClampedToEnvelope(t *testing.T) {
	p := DefaultParams()
	q := NewQuadrotor(p, geom.V3(0, 0, 5))
	q.Takeoff()
	q.SetCommand(Command{Velocity: geom.V3(100, 0, 50)})
	for i := 0; i < 2000; i++ {
		q.Step(0.02)
	}
	s := q.State()
	if s.Velocity.HorizNorm() > p.MaxHorizontalVelocity+1e-6 {
		t.Errorf("horizontal speed %v exceeds limit %v", s.Velocity.HorizNorm(), p.MaxHorizontalVelocity)
	}
	if s.Velocity.Z > p.MaxVerticalVelocity+1e-6 {
		t.Errorf("vertical speed %v exceeds limit %v", s.Velocity.Z, p.MaxVerticalVelocity)
	}
}

func TestAccelerationLimited(t *testing.T) {
	p := DefaultParams()
	q := NewQuadrotor(p, geom.V3(0, 0, 5))
	q.Takeoff()
	q.SetCommand(Command{Velocity: geom.V3(10, 0, 0)})
	dt := 0.02
	prev := q.State().Velocity
	for i := 0; i < 200; i++ {
		s := q.Step(dt)
		dv := s.Velocity.Sub(prev).Norm()
		if dv > p.MaxAcceleration*dt+1e-6 {
			t.Fatalf("step %d: velocity change %v exceeds acceleration limit", i, dv/dt)
		}
		prev = s.Velocity
	}
}

func TestHoverCommandStops(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(0, 0, 5))
	q.Takeoff()
	q.SetCommand(Command{Velocity: geom.V3(6, 0, 0)})
	for i := 0; i < 300; i++ {
		q.Step(0.02)
	}
	q.SetCommand(Command{Hover: true})
	for i := 0; i < 500; i++ {
		q.Step(0.02)
	}
	if !q.IsHovering(0.2) {
		t.Errorf("vehicle not hovering, speed = %v", q.State().Speed())
	}
}

func TestIsHoveringDefaults(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(0, 0, 5))
	if q.IsHovering(0) {
		t.Error("grounded vehicle should not count as hovering")
	}
	q.Takeoff()
	if !q.IsHovering(0) {
		t.Error("stationary airborne vehicle should count as hovering with default threshold")
	}
}

func TestYawDynamics(t *testing.T) {
	p := DefaultParams()
	q := NewQuadrotor(p, geom.V3(0, 0, 5))
	q.Takeoff()
	q.SetCommand(Command{Hover: true, YawRate: 10}) // will be clamped
	q.Step(1.0)
	if got := q.State().Yaw; math.Abs(got-p.MaxYawRate) > 1e-9 {
		t.Errorf("yaw after 1 s = %v, want clamped rate %v", got, p.MaxYawRate)
	}
}

func TestForceLand(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(0, 0, 5))
	q.Takeoff()
	q.SetCommand(Command{Velocity: geom.V3(3, 0, 0)})
	q.Step(1)
	q.ForceLand(0)
	s := q.State()
	if s.Airborne || s.Position.Z != 0 || !s.Velocity.IsZero() {
		t.Errorf("ForceLand state = %+v", s)
	}
}

func TestStepZeroDtIsNoop(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(1, 2, 3))
	before := q.State()
	q.Step(0)
	q.Step(-1)
	if q.State() != before {
		t.Error("zero/negative dt changed state")
	}
}

func TestMaxSafeVelocityEquation2(t *testing.T) {
	// The paper (Fig. 8a) reports the simulated drone is bounded between
	// roughly 8.8 m/s and 1.6 m/s for process times of 0 to 4 seconds.
	amax := 6.0
	d := 6.5 // effective sensing/stopping budget reproducing the paper's curve
	v0 := MaxSafeVelocity(0, d, amax)
	v4 := MaxSafeVelocity(4, d, amax)
	if v0 < 8 || v0 > 10 {
		t.Errorf("v(0) = %.2f, want ~8.8", v0)
	}
	if v4 < 1 || v4 > 2.5 {
		t.Errorf("v(4) = %.2f, want ~1.6", v4)
	}
	if v4 >= v0 {
		t.Error("longer process time must reduce max velocity")
	}
	// Degenerate inputs.
	if MaxSafeVelocity(1, 0, amax) != 0 {
		t.Error("zero distance should give zero velocity")
	}
	if MaxSafeVelocity(1, 10, 0) != 0 {
		t.Error("zero acceleration should give zero velocity")
	}
	if MaxSafeVelocity(-1, d, amax) != MaxSafeVelocity(0, d, amax) {
		t.Error("negative process time should clamp to zero")
	}
}

func TestMaxSafeVelocityMonotonicProperty(t *testing.T) {
	f := func(t1, t2 float64) bool {
		t1 = math.Abs(math.Mod(t1, 10))
		t2 = math.Abs(math.Mod(t2, 10))
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		v1 := MaxSafeVelocity(t1, 30, 3.43)
		v2 := MaxSafeVelocity(t2, 30, 3.43)
		return v2 <= v1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoseAndSpeedAccessors(t *testing.T) {
	s := State{Position: geom.V3(1, 2, 3), Velocity: geom.V3(3, 4, 0), Yaw: 1}
	if s.Pose().Position != s.Position || s.Pose().Yaw != 1 {
		t.Error("Pose mismatch")
	}
	if s.Speed() != 5 {
		t.Errorf("Speed = %v", s.Speed())
	}
}

func TestCommandAccessor(t *testing.T) {
	q := NewQuadrotor(DefaultParams(), geom.V3(0, 0, 0))
	c := Command{Velocity: geom.V3(1, 2, 3), YawRate: 0.5}
	q.SetCommand(c)
	if q.Command() != c {
		t.Error("Command accessor mismatch")
	}
}
