package actuation

import (
	"testing"

	"mavbench/internal/energy"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
)

func newFC() *FlightController {
	q := physics.NewQuadrotor(physics.DefaultParams(), geom.V3(0, 0, 0))
	return New(q, 0)
}

func TestModeStringsAndPhases(t *testing.T) {
	modes := []Mode{ModeDisarmed, ModeArmed, ModeTakeoff, ModeOffboard, ModeLanding, ModeLanded, Mode(42)}
	for _, m := range modes {
		if m.String() == "" {
			t.Errorf("empty string for mode %d", m)
		}
	}
	if ModeOffboard.FlightPhase() != energy.PhaseFlying {
		t.Error("offboard should map to flying")
	}
	if ModeDisarmed.FlightPhase() != energy.PhaseArming {
		t.Error("disarmed should map to arming")
	}
	if ModeLanded.FlightPhase() != energy.PhaseLanded {
		t.Error("landed should map to landed")
	}
}

func TestArmTakeoffSequence(t *testing.T) {
	fc := newFC()
	if fc.Mode() != ModeDisarmed {
		t.Fatal("should start disarmed")
	}
	if err := fc.Takeoff(); err == nil {
		t.Error("takeoff before arming should fail")
	}
	if err := fc.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := fc.Arm(); err == nil {
		t.Error("double arm should fail")
	}
	if err := fc.Takeoff(); err != nil {
		t.Fatal(err)
	}
	// Step until takeoff completes.
	for i := 0; i < 2000 && fc.Mode() == ModeTakeoff; i++ {
		fc.Step(0.02)
		fc.vehicle.Step(0.02)
	}
	if fc.Mode() != ModeOffboard {
		t.Fatalf("mode after takeoff = %v", fc.Mode())
	}
	alt := fc.vehicle.State().Position.Z
	if alt < takeoffAltitude-1 {
		t.Errorf("altitude after takeoff = %v", alt)
	}
}

func TestOffboardVelocityAndLanding(t *testing.T) {
	fc := newFC()
	if err := fc.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := fc.Takeoff(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000 && fc.Mode() == ModeTakeoff; i++ {
		fc.Step(0.02)
		fc.vehicle.Step(0.02)
	}

	if err := fc.SetVelocity(geom.V3(3, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		fc.Step(0.02)
		fc.vehicle.Step(0.02)
	}
	if fc.vehicle.State().Position.X <= 1 {
		t.Errorf("vehicle did not move forward: %v", fc.vehicle.State().Position)
	}

	if err := fc.Land(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000 && fc.Mode() != ModeLanded; i++ {
		fc.Step(0.02)
		fc.vehicle.Step(0.02)
	}
	if fc.Mode() != ModeLanded {
		t.Fatalf("landing never completed, mode=%v alt=%v", fc.Mode(), fc.vehicle.State().Position.Z)
	}
	if fc.vehicle.State().Airborne {
		t.Error("vehicle still airborne after landing")
	}
}

func TestVelocityRejectedWhenNotFlying(t *testing.T) {
	fc := newFC()
	if err := fc.SetVelocity(geom.V3(1, 0, 0), 0); err == nil {
		t.Error("velocity setpoint should be rejected while disarmed")
	}
	if err := fc.Land(); err == nil {
		t.Error("landing while disarmed should fail")
	}
}
