// Package sim is the MAVBench closed-loop simulator: it couples the
// environment, the quadrotor physics, the sensors, the flight controller, the
// energy/battery models and the ROS-style companion-computer runtime on a
// single discrete-event timeline.
//
// Information flows exactly as in Figures 3 and 4 of the paper (MAVBench,
// Boroujerdian et al., MICRO 2018, Section III): the simulated
// sensors observe the environment and publish onto topics; the workload's
// nodes (perception, planning, control) consume them on the core-limited
// executor, charging virtual compute time; the control stage issues
// velocity commands to the flight controller; the flight controller drives
// the quadrotor model, which moves through the environment — closing the
// loop. The energy model integrates rotor plus compute power into the battery
// at every physics step, and the telemetry recorder accumulates the
// quality-of-flight metrics.
package sim

import (
	"errors"
	"time"

	"mavbench/internal/actuation"
	"mavbench/internal/compute"
	"mavbench/internal/des"
	"mavbench/internal/energy"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
	"mavbench/internal/ros"
	"mavbench/internal/sensors"
	"mavbench/internal/telemetry"
)

// Topic names on which the simulator publishes sensor data.
const (
	TopicDepthImage = "/sensors/depth_image"
	TopicRGBFrame   = "/sensors/rgb_frame"
	TopicGPS        = "/sensors/gps"
	TopicIMU        = "/sensors/imu"
)

// The fixed airframe and sensor rig. MAVBench's experiments vary the
// companion computer, the kernels and the case-study knobs (Config); the
// vehicle and its sensors stay the same in every run. The airframe is
// physics.DefaultParams(), and the flight controller has one fixed tuning.
const (
	// PhysicsStepS is the integration step of the vehicle model, and the
	// lockstep quantum of a Fleet.
	PhysicsStepS float64 = 0.02
	// Sensor publication rates.
	DepthCameraRateHz float64 = 4
	RGBCameraRateHz   float64 = 4
	GPSRateHz         float64 = 10
	IMURateHz         float64 = 50
	// depthGridX × depthGridY is the depth camera's ray grid and its image
	// size: the ray grid is the image (no upsampling in closed-loop runs;
	// the perception stage decimates anyway).
	depthGridX, depthGridY = 48, 36
)

// Config parameterises a closed-loop run.
type Config struct {
	Seed int64

	// Platform is the companion computer operating point (zero = TX2 at its
	// reference point).
	Platform compute.Platform
	// Offload, when non-nil, routes selected kernels to the cloud.
	Offload *compute.Offloader
	// DepthNoiseStd enables the reliability case study's Gaussian depth
	// noise.
	DepthNoiseStd float64

	// VehicleIndex / VehicleCount identify this simulator's drone within its
	// fleet (see Fleet); a zero count means a fleet of one. Workloads use
	// them to coordinate (sector partitioning, altitude corridors) without
	// any cross-simulator communication.
	VehicleIndex int
	VehicleCount int

	// MaxMissionTimeS aborts the run after this much virtual time (0 = 1800 s).
	MaxMissionTimeS float64
	// KeepTraces enables power/phase time series in the telemetry report.
	KeepTraces bool
}

// DefaultConfig returns the standard closed-loop configuration at the paper's
// reference operating point.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Platform:        compute.DefaultTX2(),
		MaxMissionTimeS: 1800,
	}
}

// Simulator owns one closed-loop run.
//
// Sensing is demand-driven: on each tick a sensor renders its product, and
// advances its noise or bias stream, only when its topic has a subscriber.
// The tick's DES event (sim/depth, sim/rgb, sim/gps, sim/imu) fires either
// way, so the event timeline does not depend on who listens. A node that
// subscribes mid-run receives from that sensor's next tick on.
type Simulator struct {
	cfg Config

	engine   *des.Engine
	graph    *ros.Graph
	world    *env.World
	vehicle  *physics.Quadrotor
	fc       *actuation.FlightController
	cost     *compute.CostModel
	battery  *energy.Battery
	power    energy.RotorPowerModel
	recorder *telemetry.Recorder

	depthCam *sensors.DepthCamera
	rgbCam   *sensors.RGBCamera
	gps      *sensors.GPS
	imu      *sensors.IMU

	depthTopic, rgbTopic, gpsTopic, imuTopic *ros.Topic

	missionDone bool

	// teardown callbacks registered by workloads, run by Teardown once the
	// simulation is over and its report has been extracted (resource release:
	// e.g. returning octomap chunks to their pool).
	teardown []func()
}

// New builds a simulator for the given world and start position.
func New(cfg Config, world *env.World, start geom.Vec3) (*Simulator, error) {
	if world == nil {
		return nil, errors.New("sim: nil world")
	}
	if cfg.MaxMissionTimeS <= 0 {
		cfg.MaxMissionTimeS = 1800
	}
	if cfg.Platform.Cores == 0 {
		cfg.Platform = compute.DefaultTX2()
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	intrinsics := sensors.DefaultIntrinsics()
	intrinsics.Width, intrinsics.Height = depthGridX, depthGridY
	depthCam, err := sensors.NewDepthCamera(intrinsics, depthGridX, depthGridY)
	if err != nil {
		return nil, err
	}
	if cfg.DepthNoiseStd > 0 {
		depthCam.Noise = sensors.NewDepthNoise(cfg.DepthNoiseStd, cfg.Seed+303)
	}

	engine := des.NewEngine()
	engine.Horizon = des.Seconds(cfg.MaxMissionTimeS)

	airframe := physics.DefaultParams()
	s := &Simulator{
		cfg:      cfg,
		engine:   engine,
		graph:    ros.NewGraph(engine, cfg.Platform.Cores),
		world:    world,
		vehicle:  physics.NewQuadrotor(airframe, start),
		cost:     compute.NewCostModel(cfg.Platform),
		battery:  energy.NewMatrice100Battery(),
		power:    energy.NewRotorPowerModel(airframe.MassKg),
		recorder: telemetry.NewRecorder(cfg.KeepTraces),
		depthCam: depthCam,
		rgbCam:   sensors.NewRGBCamera(),
		gps:      sensors.NewGPS(cfg.Seed + 101),
		imu:      sensors.NewIMU(cfg.Seed + 202),
	}
	s.fc = actuation.New(s.vehicle, world.GroundZ)
	s.depthTopic = s.graph.Topic(TopicDepthImage)
	s.rgbTopic = s.graph.Topic(TopicRGBFrame)
	s.gpsTopic = s.graph.Topic(TopicGPS)
	s.imuTopic = s.graph.Topic(TopicIMU)

	// Route executor kernel accounting into the telemetry recorder.
	s.graph.Executor().SetKernelObserver(func(kernel, node string, cost time.Duration, startT, endT time.Duration) {
		s.recorder.RecordKernel(kernel, cost)
	})

	s.scheduleLoops()
	return s, nil
}

// Accessors used by workloads and experiments.

// Engine returns the discrete-event engine.
func (s *Simulator) Engine() *des.Engine { return s.engine }

// OnTeardown registers fn to run when Teardown is called. Workloads use it to
// release pooled resources once the run — and every read of its results — is
// finished.
func (s *Simulator) OnTeardown(fn func()) { s.teardown = append(s.teardown, fn) }

// Teardown runs the registered teardown callbacks (in registration order) and
// clears them. The simulator must not be used afterwards. Calling Teardown is
// optional — an un-torn-down simulator is simply collected by the GC.
func (s *Simulator) Teardown() {
	for _, fn := range s.teardown {
		fn()
	}
	s.teardown = nil
}

// Graph returns the ROS node graph.
func (s *Simulator) Graph() *ros.Graph { return s.graph }

// World returns the environment.
func (s *Simulator) World() *env.World { return s.world }

// Cost returns the compute cost model of the edge platform.
func (s *Simulator) Cost() *compute.CostModel { return s.cost }

// KernelTime prices a kernel, routing it through the offloader when one is
// configured. Payload sizes are used for the network cost of offloaded calls.
func (s *Simulator) KernelTime(kernel string, edgeCost time.Duration, requestBytes, responseBytes int) time.Duration {
	if s.cfg.Offload != nil {
		return s.cfg.Offload.Time(kernel, edgeCost, requestBytes, responseBytes)
	}
	return edgeCost
}

// Recorder returns the telemetry recorder.
func (s *Simulator) Recorder() *telemetry.Recorder { return s.recorder }

// Vehicle returns the quadrotor model (ground truth).
func (s *Simulator) Vehicle() *physics.Quadrotor { return s.vehicle }

// DepthCamera returns the depth camera (e.g. to adjust noise mid-run).
func (s *Simulator) DepthCamera() *sensors.DepthCamera { return s.depthCam }

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.engine.NowSeconds() }

// VehicleIndex returns this drone's index within its fleet (0 for
// single-vehicle runs and for the first drone of a fleet).
func (s *Simulator) VehicleIndex() int { return s.cfg.VehicleIndex }

// VehicleCount returns the number of drones sharing the mission; it is always
// at least 1, so single-vehicle code paths need no special-casing.
func (s *Simulator) VehicleCount() int {
	if s.cfg.VehicleCount < 1 {
		return 1
	}
	return s.cfg.VehicleCount
}

// TrueState returns the vehicle's ground-truth state.
func (s *Simulator) TrueState() physics.State { return s.vehicle.State() }

// VehicleRadius returns the airframe's collision radius.
func (s *Simulator) VehicleRadius() float64 { return s.vehicle.Params.RadiusM }

// MissionDone reports whether the mission has been completed (or aborted).
func (s *Simulator) MissionDone() bool { return s.missionDone }

// Arm arms the flight controller.
func (s *Simulator) Arm() error { return s.fc.Arm() }

// Takeoff starts the flight controller's climb to its takeoff altitude.
func (s *Simulator) Takeoff() error { return s.fc.Takeoff() }

// Land starts the flight controller's descent.
func (s *Simulator) Land() error { return s.fc.Land() }

// IssueVelocity gives the flight controller a velocity setpoint — the
// "command issue" at the end of the control stage.
func (s *Simulator) IssueVelocity(vel geom.Vec3, yawRate float64) error {
	return s.fc.SetVelocity(vel, yawRate)
}

// Hover commands a zero-velocity hold.
func (s *Simulator) Hover() error { return s.IssueVelocity(geom.Vec3{}, 0) }

// FCMode returns the flight controller's mode.
func (s *Simulator) FCMode() actuation.Mode { return s.fc.Mode() }

// CompleteMission finalises the mission and stops the engine at the current
// virtual time.
func (s *Simulator) CompleteMission(success bool, reason string) {
	if s.missionDone {
		return
	}
	s.missionDone = true
	s.recorder.EndMission(s.Now(), success, reason)
	s.engine.Stop(nil)
}

// scheduleLoops installs the physics and sensor event loops.
func (s *Simulator) scheduleLoops() {
	step := des.Seconds(PhysicsStepS)
	dt := step.Seconds()
	// Physics (and energy) at high priority so same-instant sensor events see
	// the updated world.
	s.engine.EveryPriority(step, -10, "sim/physics", func(*des.Engine) { s.physicsStep(dt) })

	s.engine.Every(des.Seconds(1/DepthCameraRateHz), "sim/depth", func(*des.Engine) { s.publishDepth() })
	s.engine.Every(des.Seconds(1/RGBCameraRateHz), "sim/rgb", func(*des.Engine) { s.publishRGB() })
	s.engine.Every(des.Seconds(1/GPSRateHz), "sim/gps", func(*des.Engine) { s.publishGPS() })
	s.engine.Every(des.Seconds(1/IMURateHz), "sim/imu", func(*des.Engine) { s.publishIMU() })
}

func (s *Simulator) physicsStep(dt float64) {
	if s.missionDone {
		return
	}
	s.fc.Step(dt)
	state := s.vehicle.Step(dt)
	s.world.Step(dt)

	// Energy integration: rotors (in still air) + compute.
	rotorW := 0.0
	if state.Airborne {
		rotorW = s.power.Power(state.Velocity, state.Acceleration, geom.Vec3{})
	}
	util := 0.0
	if s.graph.Executor().Cores() > 0 {
		util = float64(s.graph.Executor().Busy()) / float64(s.graph.Executor().Cores())
	}
	computeW := s.cfg.Platform.DynamicPowerW(util)
	s.battery.Drain(rotorW+computeW, dt)
	s.recorder.AddEnergy(rotorW*dt, computeW*dt)
	s.recorder.RecordPower(s.Now(), rotorW+computeW)
	s.recorder.RecordPhase(s.Now(), s.fc.Mode().FlightPhase().String())
	s.recorder.SampleKinematics(s.Now(), dt, state.Speed(), state.Airborne, s.vehicle.IsHovering(0.2))

	// Failure conditions.
	if s.battery.Depleted() {
		s.CompleteMission(false, "battery depleted")
		return
	}
	if state.Airborne {
		// Only obstacle strikes count as collisions; proximity to the ground
		// during takeoff/landing and map-boundary excursions do not crash the
		// vehicle.
		if _, o := s.world.NearestObstacleWithin(state.Position, s.vehicle.Params.RadiusM*0.75); o != nil {
			s.recorder.Count("collisions", 1)
			s.CompleteMission(false, "collision")
			return
		}
	}
}

// sensing reports whether a sensor tick publishing on t should render: the
// mission is still running and some node subscribes to t.
func (s *Simulator) sensing(t *ros.Topic) bool { return !s.missionDone && t.Subscribers() > 0 }

func (s *Simulator) publishDepth() {
	if !s.sensing(s.depthTopic) {
		return
	}
	s.depthTopic.Publish(s.depthCam.Capture(s.world, s.vehicle.State().Pose(), s.Now()))
}

func (s *Simulator) publishRGB() {
	if !s.sensing(s.rgbTopic) {
		return
	}
	s.rgbTopic.Publish(s.rgbCam.Capture(s.world, s.vehicle.State().Pose(), s.Now()))
}

func (s *Simulator) publishGPS() {
	if !s.sensing(s.gpsTopic) {
		return
	}
	s.gpsTopic.Publish(s.gps.Sample(s.world, s.vehicle.State().Position, s.Now()))
}

func (s *Simulator) publishIMU() {
	if !s.sensing(s.imuTopic) {
		return
	}
	s.imuTopic.Publish(s.imu.Sample(s.vehicle.State(), 1/IMURateHz, s.Now()))
}
