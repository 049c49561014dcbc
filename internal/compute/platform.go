// Package compute models the MAV's companion computer.
//
// MAVBench runs its workloads on a hardware-in-the-loop NVIDIA Jetson TX2 and
// studies how the companion computer's core count and clock frequency affect
// mission time and energy. This package replaces the physical board with a
// calibrated analytical model: per-kernel execution costs are anchored to the
// paper's measured kernel profile (Table I, collected at 4 cores / 2.2 GHz)
// and scaled across operating points with a per-kernel Amdahl model and a
// frequency term. A TX2-class power model and a cloud-offload link model
// (used by the paper's performance case study) complete the substrate.
package compute

import (
	"fmt"
	"time"
)

// Stage identifies which part of the perception-planning-control (PPC)
// pipeline a kernel belongs to.
type Stage int

const (
	// StagePerception covers sensor interpretation kernels (point cloud
	// generation, occupancy mapping, detection, tracking, localization).
	StagePerception Stage = iota
	// StagePlanning covers motion planning, collision checking and
	// trajectory smoothing.
	StagePlanning
	// StageControl covers path tracking, PID control and command issue.
	StageControl
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StagePerception:
		return "perception"
	case StagePlanning:
		return "planning"
	case StageControl:
		return "control"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Platform describes a compute platform operating point: a core count and a
// clock frequency, together with the reference operating point at which
// kernel base costs were measured and a simple power model.
type Platform struct {
	Name    string
	Cores   int
	FreqGHz float64

	// RefCores and RefFreqGHz identify the operating point at which kernel
	// base times are expressed (the paper measures Table I at 4 cores and
	// 2.2 GHz).
	RefCores   int
	RefFreqGHz float64

	// Power model: total compute power is
	//   IdlePowerW + utilization * Cores * PerCorePowerW * (FreqGHz/MaxFreqGHz)^2
	// which captures the usual dynamic-power frequency dependence well enough
	// for the energy accounting the paper performs.
	IdlePowerW    float64
	PerCorePowerW float64
	MaxFreqGHz    float64
}

// TX2 frequency operating points used throughout the paper's evaluation.
const (
	TX2FreqLowGHz  = 0.8
	TX2FreqMidGHz  = 1.5
	TX2FreqHighGHz = 2.2
)

// TX2 returns an NVIDIA Jetson TX2-class platform model at the given
// operating point. Core counts outside [1, 4] and non-positive frequencies
// are clamped to the TX2's feasible range.
func TX2(cores int, freqGHz float64) Platform {
	if cores < 1 {
		cores = 1
	}
	if cores > 4 {
		cores = 4
	}
	if freqGHz <= 0 {
		freqGHz = TX2FreqLowGHz
	}
	if freqGHz > TX2FreqHighGHz {
		freqGHz = TX2FreqHighGHz
	}
	return Platform{
		Name:          fmt.Sprintf("tx2-%dc-%.1fGHz", cores, freqGHz),
		Cores:         cores,
		FreqGHz:       freqGHz,
		RefCores:      4,
		RefFreqGHz:    TX2FreqHighGHz,
		IdlePowerW:    3.0,
		PerCorePowerW: 2.5,
		MaxFreqGHz:    TX2FreqHighGHz,
	}
}

// DefaultTX2 is the paper's reference operating point (4 cores, 2.2 GHz).
func DefaultTX2() Platform { return TX2(4, TX2FreqHighGHz) }

// CloudServer returns the "cloud" platform of the performance case study: an
// Intel i7 @ 4 GHz with a discrete GPU. Its effective per-kernel speedup over
// the TX2 reference point is captured by a higher frequency and more cores.
func CloudServer() Platform {
	return Platform{
		Name:          "cloud-i7-gtx1080",
		Cores:         8,
		FreqGHz:       4.0,
		RefCores:      4,
		RefFreqGHz:    TX2FreqHighGHz,
		IdlePowerW:    40,
		PerCorePowerW: 12,
		MaxFreqGHz:    4.0,
	}
}

// Validate reports whether the platform describes a usable operating point.
func (p Platform) Validate() error {
	if p.Cores < 1 {
		return fmt.Errorf("compute: platform %q has %d cores", p.Name, p.Cores)
	}
	if p.FreqGHz <= 0 {
		return fmt.Errorf("compute: platform %q has non-positive frequency %v", p.Name, p.FreqGHz)
	}
	if p.RefCores < 1 || p.RefFreqGHz <= 0 {
		return fmt.Errorf("compute: platform %q has invalid reference point", p.Name)
	}
	return nil
}

// amdahlTime returns the relative execution time of a task with the given
// serial fraction on n cores, normalized so that 1 core = 1.0.
func amdahlTime(serialFraction float64, cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	if serialFraction < 0 {
		serialFraction = 0
	}
	if serialFraction > 1 {
		serialFraction = 1
	}
	return serialFraction + (1-serialFraction)/float64(cores)
}

// Scale converts a base duration, measured at the platform's reference
// operating point, into the duration expected at this platform's operating
// point. serialFraction is the Amdahl serial fraction of the kernel
// (0 = perfectly parallel, 1 = fully sequential).
func (p Platform) Scale(base time.Duration, serialFraction float64) time.Duration {
	if base <= 0 {
		return 0
	}
	freqFactor := p.RefFreqGHz / p.FreqGHz
	coreFactor := amdahlTime(serialFraction, p.Cores) / amdahlTime(serialFraction, p.RefCores)
	scaled := float64(base) * freqFactor * coreFactor
	return time.Duration(scaled)
}

// KernelTime returns the expected execution time of kernel k on this
// platform, including the kernel's input-size multiplier (see Kernel.Cost).
func (p Platform) KernelTime(k Kernel) time.Duration {
	return p.Scale(k.BaseTime, k.SerialFraction)
}

// Speedup returns how much faster this platform executes a kernel with the
// given serial fraction than the baseline platform does.
func (p Platform) Speedup(serialFraction float64, baseline Platform) float64 {
	ref := time.Second
	a := baseline.Scale(ref, serialFraction)
	b := p.Scale(ref, serialFraction)
	if b <= 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// DynamicPowerW returns the compute subsystem's electrical power draw in
// watts at the given utilization in [0, 1].
func (p Platform) DynamicPowerW(utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	f := p.FreqGHz / p.MaxFreqGHz
	if p.MaxFreqGHz <= 0 {
		f = 1
	}
	return p.IdlePowerW + utilization*float64(p.Cores)*p.PerCorePowerW*f*f
}

// OperatingPoint is a (cores, frequency) pair, the unit of the paper's
// core/frequency sweeps (Figures 10-15).
type OperatingPoint struct {
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

// String implements fmt.Stringer.
func (o OperatingPoint) String() string {
	return fmt.Sprintf("%d cores @ %.1f GHz", o.Cores, o.FreqGHz)
}

// PaperOperatingPoints returns the nine TX2 operating points swept in the
// paper's evaluation: {2, 3, 4} cores x {0.8, 1.5, 2.2} GHz.
func PaperOperatingPoints() []OperatingPoint {
	freqs := []float64{TX2FreqLowGHz, TX2FreqMidGHz, TX2FreqHighGHz}
	var pts []OperatingPoint
	for _, c := range []int{2, 3, 4} {
		for _, f := range freqs {
			pts = append(pts, OperatingPoint{Cores: c, FreqGHz: f})
		}
	}
	return pts
}
