// Package telemetry collects the quality-of-flight (QoF) metrics MAVBench
// reports: mission time, total energy, average and maximum velocity, hover
// time, distance travelled, per-kernel compute time, battery state and
// application-specific metrics (tracking error, map coverage, detection
// events, re-planning counts).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Recorder accumulates QoF statistics over one mission.
type Recorder struct {
	missionStart float64
	missionEnd   float64
	started      bool
	ended        bool

	// kinematics
	samples        int
	sumSpeed       float64
	maxSpeed       float64
	hoverTime      float64
	flightTime     float64
	distance       float64
	lastSampleTime float64

	// energy
	rotorEnergyJ   float64
	computeEnergyJ float64

	// compute
	kernelTime  map[string]time.Duration
	kernelCount map[string]uint64

	// application events
	counters map[string]float64
	values   map[string][]float64

	// mission outcome
	success    bool
	failure    string
	phaseTrace []PhaseSample
	powerTrace []PowerSample
	keepTraces bool
}

// PhaseSample records the mission phase at a point in time (Figure 9b).
type PhaseSample struct {
	Time  float64
	Phase string
}

// PowerSample records total power at a point in time (Figure 9b).
type PowerSample struct {
	Time   float64
	PowerW float64
}

// NewRecorder returns an empty recorder. keepTraces enables the time-series
// traces (power/phase) used by the Figure 9b experiment; workloads leave it
// off to save memory.
func NewRecorder(keepTraces bool) *Recorder {
	return &Recorder{
		kernelTime:  map[string]time.Duration{},
		kernelCount: map[string]uint64{},
		counters:    map[string]float64{},
		values:      map[string][]float64{},
		keepTraces:  keepTraces,
	}
}

// StartMission marks the beginning of the mission clock.
func (r *Recorder) StartMission(t float64) {
	if !r.started {
		r.missionStart = t
		r.started = true
	}
}

// EndMission marks mission completion.
func (r *Recorder) EndMission(t float64, success bool, failure string) {
	if r.ended {
		return
	}
	r.missionEnd = t
	r.ended = true
	r.success = success
	r.failure = failure
}

// Started reports whether the mission clock is running.
func (r *Recorder) Started() bool { return r.started }

// Ended reports whether the mission has been closed out.
func (r *Recorder) Ended() bool { return r.ended }

// SampleKinematics records the vehicle's speed over a dt-second interval.
// hovering indicates the vehicle was airborne but (almost) stationary.
func (r *Recorder) SampleKinematics(t, dt, speed float64, airborne, hovering bool) {
	r.samples++
	r.sumSpeed += speed
	if speed > r.maxSpeed {
		r.maxSpeed = speed
	}
	if airborne {
		r.flightTime += dt
		if hovering {
			r.hoverTime += dt
		}
		r.distance += speed * dt
	}
	r.lastSampleTime = t
}

// AddEnergy accumulates rotor and compute energy (joules).
func (r *Recorder) AddEnergy(rotorJ, computeJ float64) {
	r.rotorEnergyJ += rotorJ
	r.computeEnergyJ += computeJ
}

// RecordPower appends a power trace sample (when traces are enabled).
func (r *Recorder) RecordPower(t, powerW float64) {
	if r.keepTraces {
		r.powerTrace = append(r.powerTrace, PowerSample{Time: t, PowerW: powerW})
	}
}

// RecordPhase appends a phase trace sample (when traces are enabled).
func (r *Recorder) RecordPhase(t float64, phase string) {
	if r.keepTraces {
		if n := len(r.phaseTrace); n > 0 && r.phaseTrace[n-1].Phase == phase {
			return
		}
		r.phaseTrace = append(r.phaseTrace, PhaseSample{Time: t, Phase: phase})
	}
}

// RecordKernel accumulates compute time attributed to a kernel.
func (r *Recorder) RecordKernel(kernel string, cost time.Duration) {
	if kernel == "" {
		return
	}
	r.kernelTime[kernel] += cost
	r.kernelCount[kernel]++
}

// KernelMean returns the mean cost of the named kernel so far, or zero when
// it never ran.
func (r *Recorder) KernelMean(kernel string) time.Duration {
	n := r.kernelCount[kernel]
	if n == 0 {
		return 0
	}
	return r.kernelTime[kernel] / time.Duration(n)
}

// Count increments a named application counter (e.g. "replans",
// "detections", "collisions").
func (r *Recorder) Count(name string, delta float64) { r.counters[name] += delta }

// Observe appends a named application measurement (e.g. "tracking_error_px").
func (r *Recorder) Observe(name string, value float64) {
	r.values[name] = append(r.values[name], value)
}

// Report is the final QoF summary.
type Report struct {
	MissionTimeS    float64
	FlightTimeS     float64
	HoverTimeS      float64
	AverageSpeed    float64
	MaxSpeed        float64
	DistanceM       float64
	RotorEnergyKJ   float64
	ComputeEnergyKJ float64
	TotalEnergyKJ   float64
	Success         bool
	FailureReason   string

	KernelTime  map[string]time.Duration
	KernelCount map[string]uint64
	KernelMean  map[string]time.Duration

	Counters map[string]float64
	Means    map[string]float64
	Maxes    map[string]float64

	PowerTrace []PowerSample
	PhaseTrace []PhaseSample
}

// Report builds the final summary. endTime is used when EndMission was never
// called (e.g. aborted runs).
func (r *Recorder) Report(endTime float64) Report {
	end := r.missionEnd
	if !r.ended {
		end = endTime
	}
	rep := Report{
		MissionTimeS:    math.Max(0, end-r.missionStart),
		FlightTimeS:     r.flightTime,
		HoverTimeS:      r.hoverTime,
		MaxSpeed:        r.maxSpeed,
		DistanceM:       r.distance,
		RotorEnergyKJ:   r.rotorEnergyJ / 1000,
		ComputeEnergyKJ: r.computeEnergyJ / 1000,
		TotalEnergyKJ:   (r.rotorEnergyJ + r.computeEnergyJ) / 1000,
		Success:         r.success,
		FailureReason:   r.failure,
		KernelTime:      map[string]time.Duration{},
		KernelCount:     map[string]uint64{},
		KernelMean:      map[string]time.Duration{},
		Counters:        map[string]float64{},
		Means:           map[string]float64{},
		Maxes:           map[string]float64{},
		PowerTrace:      r.powerTrace,
		PhaseTrace:      r.phaseTrace,
	}
	if r.flightTime > 0 {
		rep.AverageSpeed = r.distance / r.flightTime
	}
	for k, v := range r.kernelTime {
		rep.KernelTime[k] = v
		rep.KernelCount[k] = r.kernelCount[k]
		rep.KernelMean[k] = r.KernelMean(k)
	}
	for k, v := range r.counters {
		rep.Counters[k] = v
	}
	for k, vs := range r.values {
		if len(vs) == 0 {
			continue
		}
		sum, max := 0.0, math.Inf(-1)
		for _, v := range vs {
			sum += v
			if v > max {
				max = v
			}
		}
		rep.Means[k] = sum / float64(len(vs))
		rep.Maxes[k] = max
	}
	return rep
}

// String renders a human-readable QoF summary.
func (rep Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mission time: %.1f s (flight %.1f s, hover %.1f s)\n", rep.MissionTimeS, rep.FlightTimeS, rep.HoverTimeS)
	fmt.Fprintf(&b, "distance: %.1f m, avg velocity: %.2f m/s, max velocity: %.2f m/s\n", rep.DistanceM, rep.AverageSpeed, rep.MaxSpeed)
	fmt.Fprintf(&b, "energy: %.1f kJ total (rotors %.1f kJ, compute %.1f kJ)\n", rep.TotalEnergyKJ, rep.RotorEnergyKJ, rep.ComputeEnergyKJ)
	fmt.Fprintf(&b, "success: %v", rep.Success)
	if rep.FailureReason != "" {
		fmt.Fprintf(&b, " (%s)", rep.FailureReason)
	}
	b.WriteString("\n")
	if len(rep.KernelTime) > 0 {
		b.WriteString("kernels:\n")
		names := make([]string, 0, len(rep.KernelTime))
		for k := range rep.KernelTime {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "  %-40s total %8.2f s  calls %6d  mean %8.1f ms\n",
				k, rep.KernelTime[k].Seconds(), rep.KernelCount[k], float64(rep.KernelMean[k].Microseconds())/1000)
		}
	}
	if len(rep.Counters) > 0 {
		names := make([]string, 0, len(rep.Counters))
		for k := range rep.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("counters:\n")
		for _, k := range names {
			fmt.Fprintf(&b, "  %-30s %.1f\n", k, rep.Counters[k])
		}
	}
	return b.String()
}

// CSVHeader returns the header row for CSV export of the scalar metrics.
func CSVHeader() string {
	return "mission_time_s,flight_time_s,hover_time_s,avg_speed_mps,max_speed_mps,distance_m,rotor_energy_kj,compute_energy_kj,total_energy_kj,success"
}

// CSVRow renders the scalar metrics as a CSV row matching CSVHeader.
func (rep Report) CSVRow() string {
	return fmt.Sprintf("%.2f,%.2f,%.2f,%.3f,%.3f,%.1f,%.2f,%.3f,%.2f,%v",
		rep.MissionTimeS, rep.FlightTimeS, rep.HoverTimeS, rep.AverageSpeed, rep.MaxSpeed,
		rep.DistanceM, rep.RotorEnergyKJ, rep.ComputeEnergyKJ, rep.TotalEnergyKJ, rep.Success)
}
