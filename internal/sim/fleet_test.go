package sim

import (
	"testing"

	"mavbench/internal/actuation"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
)

// fleetSim builds one drone of a test fleet in its own empty-world clone.
func fleetSim(t *testing.T, seed int64, idx, count int, start geom.Vec3, maxTime float64) *Simulator {
	t.Helper()
	w := env.BoundedEmptyWorld(100, 40, 1)
	cfg := DefaultConfig(seed)
	cfg.MaxMissionTimeS = maxTime
	cfg.VehicleIndex = idx
	cfg.VehicleCount = count
	s, err := New(cfg, w, start)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveStraight arms, takes off and flies the drone at vel until tMax, then
// lands and completes the mission.
func driveStraight(s *Simulator, vel geom.Vec3, tMax float64) {
	_ = s.Arm()
	_ = s.Takeoff()
	s.Engine().Every(des.Seconds(0.1), "test/driver", func(e *des.Engine) {
		switch {
		case s.Now() > tMax && s.FCMode() == actuation.ModeOffboard:
			_ = s.Land()
		case s.FCMode() == actuation.ModeOffboard:
			_ = s.IssueVelocity(vel, 0)
		case s.FCMode() == actuation.ModeLanded:
			s.CompleteMission(true, "")
		}
	})
}

func TestFleetVehicleAccessors(t *testing.T) {
	s := fleetSim(t, 1, 2, 3, geom.V3(0, 0, 0), 30)
	if s.VehicleIndex() != 2 || s.VehicleCount() != 3 {
		t.Errorf("accessors = (%d, %d), want (2, 3)", s.VehicleIndex(), s.VehicleCount())
	}
	// Single-vehicle configs normalize the count to 1.
	single := fleetSim(t, 1, 0, 0, geom.V3(0, 0, 0), 30)
	if single.VehicleCount() != 1 {
		t.Errorf("zero-config VehicleCount = %d, want 1", single.VehicleCount())
	}
}

// TestFleetHeadOnCollision flies two drones directly at each other: the
// sphere check must fail both missions with an inter-vehicle collision at the
// same lockstep instant.
func TestFleetHeadOnCollision(t *testing.T) {
	a := fleetSim(t, 10, 0, 2, geom.V3(-15, 0, 0), 120)
	b := fleetSim(t, 11, 1, 2, geom.V3(15, 0, 0), 120)
	driveStraight(a, geom.V3(3, 0, 0), 100)
	driveStraight(b, geom.V3(-3, 0, 0), 100)

	fleet, err := NewFleet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := fleet.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for i, rep := range reports {
		if rep.Success {
			t.Errorf("drone %d succeeded, want inter-vehicle collision failure", i)
		}
		if rep.FailureReason != "inter-vehicle collision" {
			t.Errorf("drone %d failure = %q, want inter-vehicle collision", i, rep.FailureReason)
		}
		if rep.Counters["inter_vehicle_collisions"] != 1 {
			t.Errorf("drone %d inter_vehicle_collisions = %v, want 1", i, rep.Counters["inter_vehicle_collisions"])
		}
	}
	if a.Now() != b.Now() {
		t.Errorf("collision instants differ: %v vs %v", a.Now(), b.Now())
	}
}

// TestFleetSeparatedMissionsSucceed flies two drones on parallel tracks far
// apart: both missions must complete untouched by the collision check.
func TestFleetSeparatedMissionsSucceed(t *testing.T) {
	a := fleetSim(t, 20, 0, 2, geom.V3(-20, -12, 0), 300)
	b := fleetSim(t, 21, 1, 2, geom.V3(-20, 12, 0), 300)
	driveStraight(a, geom.V3(2, 0, 0), 15)
	driveStraight(b, geom.V3(2, 0, 0), 15)

	fleet, err := NewFleet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := fleet.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if !rep.Success {
			t.Errorf("drone %d failed: %s", i, rep.FailureReason)
		}
		if rep.Counters["inter_vehicle_collisions"] != 0 {
			t.Errorf("drone %d saw phantom inter-vehicle collision", i)
		}
	}
}

// TestFleetTimeout pins the horizon path: a drone that never completes its
// mission must be closed out as a timeout, without stalling the lockstep loop.
func TestFleetTimeout(t *testing.T) {
	a := fleetSim(t, 30, 0, 2, geom.V3(-20, -12, 0), 20)
	b := fleetSim(t, 31, 1, 2, geom.V3(-20, 12, 0), 20)
	driveStraight(a, geom.V3(2, 0, 0), 5)
	// Drone b hovers forever: arms, takes off, and never lands.
	_ = b.Arm()
	_ = b.Takeoff()
	b.Engine().Every(des.Seconds(0.1), "test/hover", func(e *des.Engine) {
		if b.FCMode() == actuation.ModeOffboard {
			_ = b.Hover()
		}
	})

	fleet, err := NewFleet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := fleet.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Success {
		t.Errorf("drone 0 failed: %s", reports[0].FailureReason)
	}
	if reports[1].Success || reports[1].FailureReason != "mission timeout" {
		t.Errorf("drone 1 = (%v, %q), want mission timeout", reports[1].Success, reports[1].FailureReason)
	}
}

// TestFleetDeterminism runs the same two-drone mission twice and requires
// byte-equal reports.
func TestFleetDeterminism(t *testing.T) {
	run := func() [2]float64 {
		a := fleetSim(t, 40, 0, 2, geom.V3(-15, -5, 0), 120)
		b := fleetSim(t, 41, 1, 2, geom.V3(15, 5, 0), 120)
		driveStraight(a, geom.V3(3, 0.4, 0), 100)
		driveStraight(b, geom.V3(-3, -0.4, 0), 100)
		fleet, err := NewFleet(a, b)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := fleet.Run()
		if err != nil {
			t.Fatal(err)
		}
		return [2]float64{reports[0].MissionTimeS, reports[1].MissionTimeS}
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("fleet run not deterministic: %v vs %v", first, second)
	}
}
