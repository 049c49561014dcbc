package sim

import (
	"math"
	"testing"
	"time"

	"mavbench/internal/actuation"
	"mavbench/internal/compute"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/ros"
	"mavbench/internal/sensors"
	"mavbench/internal/telemetry"
)

func emptyWorldSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	w := env.BoundedEmptyWorld(100, 40, 1)
	s, err := New(cfg, w, geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSolo flies s as a fleet of one and returns its report.
func runSolo(t *testing.T, s *Simulator) telemetry.Report {
	t.Helper()
	fleet, err := NewFleet(s)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := fleet.Run()
	if err != nil {
		t.Fatal(err)
	}
	return reports[0]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(1), nil, geom.Vec3{}); err == nil {
		t.Error("nil world should fail")
	}
	// Zero-value config gets defaults filled.
	w := env.BoundedEmptyWorld(50, 30, 1)
	s, err := New(Config{}, w, geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine().Horizon != des.Seconds(1800) || s.Graph().Executor().Cores() != compute.DefaultTX2().Cores {
		t.Error("defaults not applied")
	}
}

func TestTakeoffFlyLandClosedLoop(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.MaxMissionTimeS = 120
	s := emptyWorldSim(t, cfg)

	if err := s.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := s.Takeoff(); err != nil {
		t.Fatal(err)
	}
	// Fly forward once offboard, then land after 20 s of flight.
	s.Engine().Every(des.Seconds(0.1), "test/driver", func(e *des.Engine) {
		switch {
		case s.Now() > 40 && s.FCMode() == actuation.ModeOffboard:
			_ = s.Land()
		case s.FCMode() == actuation.ModeOffboard:
			_ = s.IssueVelocity(geom.V3(3, 0, 0), 0)
		}
	})
	s.Engine().Every(des.Seconds(0.1), "test/finish", func(e *des.Engine) {
		if s.FCMode() == actuation.ModeLanded {
			s.CompleteMission(true, "")
		}
	})

	rep := runSolo(t, s)
	if !rep.Success {
		t.Fatalf("mission failed: %s", rep.FailureReason)
	}
	if rep.DistanceM < 20 {
		t.Errorf("distance = %.1f m, expected a real flight", rep.DistanceM)
	}
	if rep.MaxSpeed < 2 {
		t.Errorf("max speed = %.1f", rep.MaxSpeed)
	}
	if rep.TotalEnergyKJ <= 0 {
		t.Error("no energy consumed")
	}
	if rep.RotorEnergyKJ <= rep.ComputeEnergyKJ {
		t.Error("rotor energy should dominate compute energy")
	}
	if s.battery.StateOfCharge() >= 1 {
		t.Error("battery did not discharge")
	}
}

// sensorEvents maps each sensor's DES event to the topic it publishes on.
var sensorEvents = map[string]string{
	"sim/depth": TopicDepthImage,
	"sim/rgb":   TopicRGBFrame,
	"sim/gps":   TopicGPS,
	"sim/imu":   TopicIMU,
}

// stamp returns the capture time of a sensor message.
func stamp(t *testing.T, msg ros.Message) float64 {
	t.Helper()
	switch m := msg.(type) {
	case *sensors.DepthImage:
		return m.Timestamp
	case *sensors.Frame:
		return m.Timestamp
	case sensors.GPSFix:
		return m.Timestamp
	case sensors.IMUReading:
		return m.Timestamp
	}
	t.Fatalf("unexpected sensor message %T", msg)
	return 0
}

func TestSensorTopicsPublish(t *testing.T) {
	t.Run("subscribed", func(t *testing.T) {
		s := emptyWorldSim(t, DefaultConfig(5))
		seen := map[string]int{}
		for _, topic := range sensorEvents {
			s.Graph().Node("test").Subscribe(topic, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
				seen[topic]++
				return ros.CallbackResult{}
			})
		}
		if err := s.Engine().RunUntil(des.Seconds(2)); err != nil {
			t.Fatal(err)
		}
		for _, topic := range sensorEvents {
			if seen[topic] == 0 {
				t.Errorf("no publications on %s", topic)
			}
		}
		if seen[TopicIMU] <= seen[TopicGPS] {
			t.Error("IMU should publish faster than GPS")
		}
	})

	// A sensor whose topic nobody subscribes to renders nothing, but its
	// tick still fires, so the event timeline is the same either way.
	t.Run("unsubscribed", func(t *testing.T) {
		s := emptyWorldSim(t, DefaultConfig(5))
		ticks := map[string]int{}
		s.Engine().SetTracer(func(ev des.Event) { ticks[ev.Name]++ })
		if err := s.Engine().RunUntil(des.Seconds(2)); err != nil {
			t.Fatal(err)
		}
		for event, topic := range sensorEvents {
			if n := s.Graph().Topic(topic).Published(); n != 0 {
				t.Errorf("%s published %d messages with no subscriber", topic, n)
			}
			if ticks[event] == 0 {
				t.Errorf("%s never fired", event)
			}
		}
	})

	// A node that subscribes mid-run receives from the sensor's next tick on,
	// and nothing was rendered for the ticks before it.
	t.Run("mid-run", func(t *testing.T) {
		s := emptyWorldSim(t, DefaultConfig(5))
		subscribed := false
		nextTick := map[string]float64{}
		s.Engine().SetTracer(func(ev des.Event) {
			if _, ok := sensorEvents[ev.Name]; ok && subscribed {
				if _, seen := nextTick[ev.Name]; !seen {
					nextTick[ev.Name] = ev.At.Seconds()
				}
			}
		})
		stamps := map[string][]float64{}
		s.Engine().ScheduleAt(des.Seconds(1), "test/subscribe", func(*des.Engine) {
			for _, topic := range sensorEvents {
				s.Graph().Node("late").Subscribe(topic, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
					stamps[topic] = append(stamps[topic], stamp(t, msg))
					return ros.CallbackResult{}
				})
			}
			subscribed = true
		})
		if err := s.Engine().RunUntil(des.Seconds(2)); err != nil {
			t.Fatal(err)
		}
		for event, topic := range sensorEvents {
			got := stamps[topic]
			if len(got) == 0 {
				t.Errorf("%s: late subscriber received nothing", topic)
				continue
			}
			if got[0] != nextTick[event] {
				t.Errorf("%s: first message stamped %v s, want the next tick at %v s", topic, got[0], nextTick[event])
			}
			if n := s.Graph().Topic(topic).Published(); n != uint64(len(got)) {
				t.Errorf("%s published %d messages, the late subscriber received %d", topic, n, len(got))
			}
		}
	})
}

// TestIssueVelocityHoldsSinglePrecisionSetpoint pins the flight controller's
// setpoint precision: a velocity command reaches the vehicle rounded to
// float32, yaw rate included. The goldens depend on that rounding.
func TestIssueVelocityHoldsSinglePrecisionSetpoint(t *testing.T) {
	s := emptyWorldSim(t, DefaultConfig(19))
	step := func() {
		t.Helper()
		if err := s.Engine().RunUntil(s.Engine().Now() + des.Seconds(PhysicsStepS)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := s.Takeoff(); err != nil {
		t.Fatal(err)
	}
	for s.FCMode() != actuation.ModeOffboard {
		if s.Now() > 60 {
			t.Fatalf("takeoff incomplete at %v s", s.Now())
		}
		step()
	}

	vel, yawRate := geom.V3(0.1, -1.0/3, 2.7), 0.3
	if err := s.IssueVelocity(vel, yawRate); err != nil {
		t.Fatal(err)
	}
	step()

	got := s.Vehicle().Command()
	single := func(x float64) float64 { return float64(float32(x)) }
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"vx", got.Velocity.X, single(vel.X)},
		{"vy", got.Velocity.Y, single(vel.Y)},
		{"vz", got.Velocity.Z, single(vel.Z)},
		{"yaw rate", got.YawRate, single(yawRate)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v, want the float32-rounded %v", c.name, c.got, c.want)
		}
	}
}

func TestCollisionAbortsMission(t *testing.T) {
	w := env.BoundedEmptyWorld(100, 40, 1)
	// A wall directly in the flight path.
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(14, -20, 0), geom.V3(16, 20, 30)), "wall")
	cfg := DefaultConfig(7)
	cfg.MaxMissionTimeS = 120
	s, err := New(cfg, w, geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Arm()
	_ = s.Takeoff()
	s.Engine().Every(des.Seconds(0.1), "test/driver", func(*des.Engine) {
		if s.FCMode() == actuation.ModeOffboard {
			_ = s.IssueVelocity(geom.V3(5, 0, 0), 0)
		}
	})
	rep := runSolo(t, s)
	if rep.Success {
		t.Error("flying into a wall should fail the mission")
	}
	if rep.FailureReason != "collision" {
		t.Errorf("failure reason = %q", rep.FailureReason)
	}
	if rep.Counters["collisions"] != 1 {
		t.Errorf("collisions = %v, want 1", rep.Counters["collisions"])
	}
}

func TestMissionTimeout(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.MaxMissionTimeS = 5
	s := emptyWorldSim(t, cfg)
	_ = s.Arm()
	_ = s.Takeoff()
	rep := runSolo(t, s)
	if rep.Success {
		t.Error("timed-out mission should not be successful")
	}
	if rep.FailureReason != "mission timeout" {
		t.Errorf("failure reason = %q", rep.FailureReason)
	}
	if rep.MissionTimeS > 6 {
		t.Errorf("mission time %v exceeds the horizon", rep.MissionTimeS)
	}
}

func TestComputeCostDelaysWork(t *testing.T) {
	// The same kernel load takes longer (in virtual time) on a weaker
	// platform, which is the foundation of every compute-scaling result.
	elapsed := func(platform compute.Platform) time.Duration {
		cfg := DefaultConfig(11)
		cfg.Platform = platform
		s := emptyWorldSim(t, cfg)
		costModel := compute.NewCostModel(platform)
		done := 0
		for i := 0; i < 8; i++ {
			s.Graph().Executor().Submit("load", func(now time.Duration) ros.CallbackResult {
				done++
				return ros.CallbackResult{Cost: costModel.MustKernelTime(compute.KernelOctomap), Kernel: compute.KernelOctomap}
			}, nil)
		}
		if err := s.Engine().RunUntil(des.Seconds(300)); err != nil {
			t.Fatal(err)
		}
		if done != 8 {
			t.Fatalf("only %d jobs ran", done)
		}
		return s.Recorder().Report(0).KernelTime[compute.KernelOctomap]
	}
	slow := elapsed(compute.TX2(2, compute.TX2FreqLowGHz))
	fast := elapsed(compute.DefaultTX2())
	if slow <= fast {
		t.Errorf("weak platform should accumulate more kernel time: slow=%v fast=%v", slow, fast)
	}
}

func TestKernelTimeOffloadPassthrough(t *testing.T) {
	cfg := DefaultConfig(13)
	s := emptyWorldSim(t, cfg)
	if got := s.KernelTime(compute.KernelShortestPath, time.Second, 100, 100); got != time.Second {
		t.Errorf("without an offloader the edge cost should pass through, got %v", got)
	}

	edge := compute.NewCostModel(compute.DefaultTX2())
	remote := compute.NewCostModel(compute.CloudServer())
	cfg2 := DefaultConfig(13)
	cfg2.Offload = compute.NewOffloader(edge, remote, compute.LAN1Gbps(), compute.KernelShortestPath)
	s2 := emptyWorldSim(t, cfg2)
	if got := s2.KernelTime(compute.KernelShortestPath, time.Second, 100_000, 10_000); got >= time.Second {
		t.Errorf("offloaded planning should be faster than the edge, got %v", got)
	}
}

func TestDepthNoiseConfig(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.DepthNoiseStd = 1.0
	s := emptyWorldSim(t, cfg)
	if s.DepthCamera().Noise == nil {
		t.Error("depth noise not installed")
	}
}
