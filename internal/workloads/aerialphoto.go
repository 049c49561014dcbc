package workloads

import (
	"time"

	"mavbench/internal/actuation"
	"mavbench/internal/compute"
	"mavbench/internal/control"
	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/detection"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/ros"
	"mavbench/internal/sensors"
	"mavbench/internal/sim"
	"mavbench/internal/tracking"
)

// AerialPhotography is the subject-following workload: detect a moving
// person, keep them locked with the KCF tracker, and fly so that their
// bounding box stays centered in the camera frame (PID framing control).
//
// Unlike the other workloads a longer mission time is better here — the
// mission lasts as long as the subject can be tracked — and the figure of
// merit is the pixel error between the subject's box center and the image
// center (the paper's Figure 14 "error rate").
type AerialPhotography struct{}

func init() { core.Register(AerialPhotography{}) }

// Name implements core.Workload.
func (AerialPhotography) Name() string { return "aerial_photography" }

// Description implements core.Workload.
func (AerialPhotography) Description() string {
	return "detect and film a moving subject, keeping it centered in frame"
}

// World implements core.Workload.
func (AerialPhotography) World(p core.Params) (*env.World, geom.Vec3, error) {
	w, err := buildEnvironment(p, "park")
	if err != nil {
		return nil, geom.Vec3{}, err
	}
	// Park worlds come with a walking subject; cross-matrix runs over other
	// scenarios get one injected on a patrol through the world center.
	base := env.DefaultPhotographyConfig(p.Seed)
	knobs := p.EffectiveKnobs()
	subject := env.EnsureSubject(w,
		base.PatrolLength*clampScale(p.WorldScale)*knobs.ExtentScale,
		base.SubjectSpeed*knobs.DynamicSpeed)
	// Start a little behind the subject's patrol line — nudged to a clear
	// spot, which the park default already is (cross-matrix worlds can put a
	// building there).
	start := findClearSpot(w, subject.Center().Add(geom.V3(-8, -3, 0)), 2.0)
	start.Z = 0
	return w, start, nil
}

// Setup implements core.Workload.
func (AerialPhotography) Setup(s *sim.Simulator, p core.Params) error {
	det, err := detection.New(p.Detector, p.Seed+23)
	if err != nil {
		return err
	}
	trkBuffered := tracking.New(tracking.ModeBuffered, p.Seed+29)
	trkRealTime := tracking.New(tracking.ModeRealTime, p.Seed+31)
	framing := control.NewFramingController()

	intr := sensors.DefaultIntrinsics()
	centerU := float64(intr.Width) / 2
	centerV := float64(intr.Height) / 2

	var (
		lastSeen   float64
		everLocked bool
	)
	const lostTimeout = 8.0 // seconds without the subject before giving up
	// The shoot wraps up successfully after this much filming; without a cap
	// the mission would only end when the battery runs out.
	filmingDuration := 120.0
	if p.MaxMissionTimeS > 0 && p.MaxMissionTimeS*0.5 < filmingDuration {
		filmingDuration = p.MaxMissionTimeS * 0.5
	}

	// Detection node: re-initialises the trackers whenever the detector fires.
	s.Graph().Node("object_detection").Subscribe(sim.TopicRGBFrame, 1, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		frame := msg.(*sensors.Frame)
		dets := det.Detect(frame)
		cost := s.Cost().DetectionTime(det.KernelName(), frame.Intrinsics.Pixels())
		if best, ok := detection.BestDetection(dets, "subject"); ok {
			trkBuffered.Init(best.Box)
			trkRealTime.Init(best.Box)
			lastSeen = s.Now()
			everLocked = true
			s.Recorder().Count("detections", 1)
		}
		return ros.CallbackResult{Cost: cost, Kernel: det.KernelName()}
	})

	// Tracking node: the real-time tracker updates the framing controller on
	// every frame; the buffered tracker runs alongside (higher quality,
	// higher cost) as in the benchmark's dataflow.
	s.Graph().Node("tracking").Subscribe(sim.TopicRGBFrame, 1, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		frame := msg.(*sensors.Frame)
		resRT := trkRealTime.Update(frame)
		_ = trkBuffered.Update(frame)
		cost := s.Cost().MustKernelTime(compute.KernelTrackRealTime) + s.Cost().MustKernelTime(compute.KernelTrackBuffered)
		s.Recorder().RecordKernel(compute.KernelTrackBuffered, s.Cost().MustKernelTime(compute.KernelTrackBuffered))

		if resRT.Locked {
			lastSeen = s.Now()
			c := resRT.Box.Center()
			errX := c.X - centerU
			errY := c.Y - centerV
			s.Recorder().Observe("framing_error_px", abs(errX)+abs(errY))
			// Normalised error in "meters-equivalent" as the paper's error
			// rate metric (error per unit time is dominated by pixel offset).
			s.Recorder().Observe("framing_error_norm", (abs(errX)/centerU+abs(errY)/centerV)/2)

			cmd := framing.Update(errX, errY, resRT.Box.Distance, 1/sim.RGBCameraRateHz, s.TrueState().Pose())
			if s.FCMode() == actuation.ModeOffboard {
				_ = s.IssueVelocity(cmd.Velocity, cmd.YawRate)
			}
		}
		return ros.CallbackResult{Cost: cost, Kernel: compute.KernelTrackRealTime}
	})

	// Mission supervisor: end the mission when the subject has been lost for
	// too long (success if it was ever tracked) or when the battery runs out.
	s.Engine().Every(des.Seconds(1), "photography/mission", func(*des.Engine) {
		if s.MissionDone() || s.FCMode() != actuation.ModeOffboard {
			return
		}
		if everLocked && (s.Now()-lastSeen > lostTimeout || s.Now() > filmingDuration) {
			landAndFinish(s, true, "")
			return
		}
		if !everLocked && s.Now() > 60 {
			landAndFinish(s, false, "subject never acquired")
			return
		}
		if !trkRealTime.Locked() {
			_ = s.Hover()
		}
	})

	return startFlight(s, func() {})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
