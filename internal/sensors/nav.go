package sensors

import (
	"math"
	"math/rand"

	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
)

// IMUReading is a single inertial measurement: body-frame acceleration and
// yaw rate, plus the integrated attitude estimate the flight stack exposes.
type IMUReading struct {
	AccelBody geom.Vec3
	YawRate   float64
	Yaw       float64
	Timestamp float64
}

// IMU simulates an inertial measurement unit with Gaussian noise and a slow
// bias random walk.
type IMU struct {
	AccelNoiseStd float64
	GyroNoiseStd  float64
	BiasWalkStd   float64

	rng       *rand.Rand
	accelBias geom.Vec3
	gyroBias  float64
	prevYaw   float64
	hasPrev   bool
}

// NewIMU returns an IMU with MEMS-class noise figures.
func NewIMU(seed int64) *IMU {
	return &IMU{
		AccelNoiseStd: 0.05,
		GyroNoiseStd:  0.005,
		BiasWalkStd:   0.0005,
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// Sample produces a reading from the true vehicle state.
func (m *IMU) Sample(state physics.State, dt, timestamp float64) IMUReading {
	// Random-walk the biases.
	m.accelBias = m.accelBias.Add(geom.V3(
		m.rng.NormFloat64()*m.BiasWalkStd,
		m.rng.NormFloat64()*m.BiasWalkStd,
		m.rng.NormFloat64()*m.BiasWalkStd,
	))
	m.gyroBias += m.rng.NormFloat64() * m.BiasWalkStd

	accelWorld := state.Acceleration
	pose := state.Pose()
	accelBody := pose.ToBody(pose.Position.Add(accelWorld)) // rotate only
	accelBody = accelBody.Add(m.accelBias).Add(geom.V3(
		m.rng.NormFloat64()*m.AccelNoiseStd,
		m.rng.NormFloat64()*m.AccelNoiseStd,
		m.rng.NormFloat64()*m.AccelNoiseStd,
	))

	yawRate := 0.0
	if m.hasPrev && dt > 0 {
		yawRate = geom.AngleDiff(state.Yaw, m.prevYaw) / dt
	}
	m.prevYaw = state.Yaw
	m.hasPrev = true
	yawRate += m.gyroBias + m.rng.NormFloat64()*m.GyroNoiseStd

	return IMUReading{
		AccelBody: accelBody,
		YawRate:   yawRate,
		Yaw:       state.Yaw + m.rng.NormFloat64()*m.GyroNoiseStd,
		Timestamp: timestamp,
	}
}

// GPSFix is a position estimate with its reported accuracy.
type GPSFix struct {
	Position      geom.Vec3
	AccuracyM     float64
	Timestamp     float64
	Degraded      bool // true when the fix quality is reduced by obstruction
	NumSatellites int
}

// GPS simulates a GNSS receiver: horizontal Gaussian noise plus degradation
// when the sky view is obstructed by nearby structures (mirroring AirSim's
// "degradation of GPS signal due to obstacles" limitation the paper notes).
type GPS struct {
	HorizontalNoiseStd float64
	VerticalNoiseStd   float64
	// DegradedNoiseFactor multiplies the noise when obstructed.
	DegradedNoiseFactor float64
	// ObstructionRadius is how close a tall structure must be to degrade the
	// fix.
	ObstructionRadius float64

	rng *rand.Rand
}

// NewGPS returns a consumer-grade GNSS model.
func NewGPS(seed int64) *GPS {
	return &GPS{
		HorizontalNoiseStd:  0.5,
		VerticalNoiseStd:    1.0,
		DegradedNoiseFactor: 4,
		ObstructionRadius:   8,
		rng:                 rand.New(rand.NewSource(seed)),
	}
}

// Sample produces a fix for the true position within the world (used to test
// for obstruction).
func (g *GPS) Sample(w *env.World, truth geom.Vec3, timestamp float64) GPSFix {
	noiseH := g.HorizontalNoiseStd
	noiseV := g.VerticalNoiseStd
	degraded := false
	sats := 12
	if w != nil {
		if d, o := w.NearestObstacleWithin(truth, g.ObstructionRadius); o != nil && d < g.ObstructionRadius && o.Box.Max.Z > truth.Z {
			degraded = true
			noiseH *= g.DegradedNoiseFactor
			noiseV *= g.DegradedNoiseFactor
			sats = 5
		}
	}
	fix := GPSFix{
		Position: geom.V3(
			truth.X+g.rng.NormFloat64()*noiseH,
			truth.Y+g.rng.NormFloat64()*noiseH,
			truth.Z+g.rng.NormFloat64()*noiseV,
		),
		AccuracyM:     math.Max(noiseH, noiseV),
		Timestamp:     timestamp,
		Degraded:      degraded,
		NumSatellites: sats,
	}
	return fix
}
