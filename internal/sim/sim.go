// Package sim is the MAVBench closed-loop simulator: it couples the
// environment, the quadrotor physics, the sensors, the flight controller, the
// energy/battery models and the ROS-style companion-computer runtime on a
// single discrete-event timeline.
//
// Information flows exactly as in Figures 3 and 4 of the paper (MAVBench,
// Boroujerdian et al., MICRO 2018, Section III): the simulated
// sensors observe the environment and publish onto topics; the workload's
// nodes (perception, planning, control) consume them on the core-limited
// executor, charging virtual compute time; the control stage issues MAVLink
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
	"mavbench/internal/mavlink"
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

// Config parameterises a closed-loop run.
type Config struct {
	Seed int64

	// Platform is the companion computer operating point.
	Platform compute.Platform
	// Offload, when non-nil, routes selected kernels to the cloud.
	Offload *compute.Offloader

	// PhysicsStepS is the integration step of the vehicle model.
	PhysicsStepS float64
	// DepthCameraRateHz / RGBCameraRateHz / GPSRateHz / IMURateHz are the
	// sensor publication rates.
	DepthCameraRateHz float64
	RGBCameraRateHz   float64
	GPSRateHz         float64
	IMURateHz         float64
	// DepthRaysX/Y set the depth camera ray-cast grid (and image size) used
	// in closed-loop runs.
	DepthRaysX, DepthRaysY int
	// DepthNoiseStd enables the reliability case study's Gaussian depth
	// noise.
	DepthNoiseStd float64

	// VehicleParams configures the airframe; zero value uses defaults.
	VehicleParams physics.Params
	// Wind applies a constant/gusty wind field.
	Wind physics.Wind
	// FCConfig configures the flight controller; zero value uses defaults.
	FCConfig actuation.Config

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
	// DisableCollisionAbort keeps flying through collisions (used by a few
	// micro-benchmarks that deliberately graze obstacles).
	DisableCollisionAbort bool
}

// DefaultConfig returns the standard closed-loop configuration at the paper's
// reference operating point.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Platform:          compute.DefaultTX2(),
		PhysicsStepS:      0.02,
		DepthCameraRateHz: 4,
		RGBCameraRateHz:   4,
		GPSRateHz:         10,
		IMURateHz:         50,
		DepthRaysX:        48,
		DepthRaysY:        36,
		VehicleParams:     physics.DefaultParams(),
		FCConfig:          actuation.DefaultConfig(),
		MaxMissionTimeS:   1800,
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

	seq            uint8
	commandsIssued uint64
	missionDone    bool
	collisions     uint64

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
	if cfg.PhysicsStepS <= 0 {
		cfg.PhysicsStepS = 0.02
	}
	if cfg.MaxMissionTimeS <= 0 {
		cfg.MaxMissionTimeS = 1800
	}
	if cfg.DepthCameraRateHz <= 0 {
		cfg.DepthCameraRateHz = 4
	}
	if cfg.RGBCameraRateHz <= 0 {
		cfg.RGBCameraRateHz = 4
	}
	if cfg.GPSRateHz <= 0 {
		cfg.GPSRateHz = 10
	}
	if cfg.IMURateHz <= 0 {
		cfg.IMURateHz = 50
	}
	if cfg.DepthRaysX <= 1 {
		cfg.DepthRaysX = 48
	}
	if cfg.DepthRaysY <= 1 {
		cfg.DepthRaysY = 36
	}
	if cfg.VehicleParams.MassKg == 0 {
		cfg.VehicleParams = physics.DefaultParams()
	}
	if err := cfg.VehicleParams.Validate(); err != nil {
		return nil, err
	}
	if cfg.Platform.Cores == 0 {
		cfg.Platform = compute.DefaultTX2()
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}

	engine := des.NewEngine()
	engine.Horizon = des.Seconds(cfg.MaxMissionTimeS)

	s := &Simulator{
		cfg:      cfg,
		engine:   engine,
		graph:    ros.NewGraph(engine, cfg.Platform.Cores),
		world:    world,
		vehicle:  physics.NewQuadrotor(cfg.VehicleParams, start),
		cost:     compute.NewCostModel(cfg.Platform),
		battery:  energy.NewMatrice100Battery(),
		power:    energy.NewRotorPowerModel(cfg.VehicleParams.MassKg),
		recorder: telemetry.NewRecorder(cfg.KeepTraces),
		gps:      sensors.NewGPS(cfg.Seed + 101),
		imu:      sensors.NewIMU(cfg.Seed + 202),
	}
	s.vehicle.Wind = cfg.Wind
	s.fc = actuation.New(cfg.FCConfig, s.vehicle, world.GroundZ)

	// Depth camera: the ray grid is the image (no upsampling in closed-loop
	// runs; the perception stage decimates anyway).
	intrinsics := sensors.DefaultIntrinsics()
	intrinsics.Width = cfg.DepthRaysX
	intrinsics.Height = cfg.DepthRaysY
	s.depthCam = &sensors.DepthCamera{Intrinsics: intrinsics, RaysX: cfg.DepthRaysX, RaysY: cfg.DepthRaysY}
	if cfg.DepthNoiseStd > 0 {
		s.depthCam.Noise = sensors.NewDepthNoise(cfg.DepthNoiseStd, cfg.Seed+303)
	}
	s.rgbCam = sensors.NewRGBCamera()
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

// Offloader returns the cloud offloader (may be nil).
func (s *Simulator) Offloader() *compute.Offloader { return s.cfg.Offload }

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

// Battery returns the battery model.
func (s *Simulator) Battery() *energy.Battery { return s.battery }

// Vehicle returns the quadrotor model (ground truth).
func (s *Simulator) Vehicle() *physics.Quadrotor { return s.vehicle }

// FlightController returns the FC.
func (s *Simulator) FlightController() *actuation.FlightController { return s.fc }

// DepthCamera returns the depth camera (e.g. to adjust noise mid-run).
func (s *Simulator) DepthCamera() *sensors.DepthCamera { return s.depthCam }

// Config returns the simulator configuration.
func (s *Simulator) Config() Config { return s.cfg }

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
func (s *Simulator) VehicleRadius() float64 { return s.cfg.VehicleParams.RadiusM }

// CommandsIssued returns the number of velocity commands sent to the FC.
func (s *Simulator) CommandsIssued() uint64 { return s.commandsIssued }

// Collisions returns how many collisions were detected.
func (s *Simulator) Collisions() uint64 { return s.collisions }

// MissionDone reports whether the mission has been completed (or aborted).
func (s *Simulator) MissionDone() bool { return s.missionDone }

// Arm sends the arm command to the flight controller.
func (s *Simulator) Arm() error { return s.sendCommand(mavlink.MsgIDCommandArm, 0) }

// Takeoff sends the takeoff command to the flight controller.
func (s *Simulator) Takeoff() error { return s.sendCommand(mavlink.MsgIDCommandTakeoff, 0) }

// Land sends the land command to the flight controller.
func (s *Simulator) Land() error { return s.sendCommand(mavlink.MsgIDCommandLand, 0) }

func (s *Simulator) sendCommand(msgID uint8, param float64) error {
	s.seq++
	return s.fc.HandleFrame(mavlink.EncodeCommand(s.seq, msgID, param).Marshal())
}

// IssueVelocity sends a velocity setpoint to the flight controller over the
// MAVLink link — the "command issue" at the end of the control stage.
func (s *Simulator) IssueVelocity(vel geom.Vec3, yawRate float64) error {
	s.seq++
	s.commandsIssued++
	frame := mavlink.EncodeVelocitySetpoint(s.seq, mavlink.VelocitySetpoint{Velocity: vel, YawRate: yawRate})
	return s.fc.HandleFrame(frame.Marshal())
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
	step := des.Seconds(s.cfg.PhysicsStepS)
	// Physics (and energy) at high priority so same-instant sensor events see
	// the updated world.
	s.engine.SchedulePriority(step, -10, "sim/physics", func(e *des.Engine) { s.physicsStep(e, step) })

	s.engine.Every(des.Seconds(1/s.cfg.DepthCameraRateHz), "sim/depth", func(*des.Engine) { s.publishDepth() })
	s.engine.Every(des.Seconds(1/s.cfg.RGBCameraRateHz), "sim/rgb", func(*des.Engine) { s.publishRGB() })
	s.engine.Every(des.Seconds(1/s.cfg.GPSRateHz), "sim/gps", func(*des.Engine) { s.publishGPS() })
	s.engine.Every(des.Seconds(1/s.cfg.IMURateHz), "sim/imu", func(*des.Engine) { s.publishIMU() })
}

func (s *Simulator) physicsStep(e *des.Engine, step time.Duration) {
	if s.missionDone {
		return
	}
	dt := step.Seconds()

	s.fc.Step(dt)
	state := s.vehicle.Step(dt)
	s.world.Step(dt)

	// Energy integration: rotors + compute.
	rotorW := 0.0
	if state.Airborne {
		rotorW = s.power.Power(state.Velocity, state.Acceleration, s.vehicle.Wind.At(s.Now()))
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
	if !s.cfg.DisableCollisionAbort && state.Airborne {
		// Only obstacle strikes count as collisions; proximity to the ground
		// during takeoff/landing and map-boundary excursions do not crash the
		// vehicle.
		if d, o := s.world.NearestObstacleDistance(state.Position); o != nil && d <= s.cfg.VehicleParams.RadiusM*0.75 {
			s.collisions++
			s.recorder.Count("collisions", 1)
			s.CompleteMission(false, "collision")
			return
		}
	}

	// Schedule the next step.
	s.engine.SchedulePriority(e.Now()+step, -10, "sim/physics", func(e *des.Engine) { s.physicsStep(e, step) })
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
	s.imuTopic.Publish(s.imu.Sample(s.vehicle.State(), 1/s.cfg.IMURateHz, s.Now()))
}
