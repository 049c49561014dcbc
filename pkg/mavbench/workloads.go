package mavbench

import (
	"mavbench/internal/compute"
	"mavbench/internal/core"
	"mavbench/internal/telemetry"
)

// Report is the quality-of-flight summary of one run: mission time, energy
// split, velocities, per-kernel compute profile, counters and traces. It is
// an alias so external callers can name the type without importing internal
// packages.
type Report = telemetry.Report

// CSVHeader returns the header row matching Report.CSVRow.
func CSVHeader() string { return telemetry.CSVHeader() }

// WorkloadInfo describes one registered benchmark application.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// Workloads returns every registered benchmark application, sorted by name.
func Workloads() []WorkloadInfo {
	names := core.Workloads()
	infos := make([]WorkloadInfo, 0, len(names))
	for _, n := range names {
		w, err := core.Lookup(n)
		if err != nil {
			continue
		}
		infos = append(infos, WorkloadInfo{Name: n, Description: w.Description()})
	}
	return infos
}

// Detectors returns the valid object-detector kernel names.
func Detectors() []string { return core.Detectors() }

// Localizers returns the valid localization kernel names.
func Localizers() []string { return core.Localizers() }

// Planners returns the valid motion-planner kernel names.
func Planners() []string { return core.Planners() }

// Environments returns the valid environment-override names.
func Environments() []string { return core.Environments() }

// OffloadedKernels returns the names of the planning-stage kernels that
// WithCloudOffload moves to the cloud server — the keys to look up in
// Report.KernelTime when comparing edge and sensor-cloud runs.
func OffloadedKernels() []string {
	return []string{compute.KernelShortestPath, compute.KernelFrontierExplore, compute.KernelSmoothing}
}

// OperatingPoint is a (cores, frequency) pair, the unit of the paper's
// compute sweeps.
type OperatingPoint = compute.OperatingPoint

// PaperOperatingPoints returns the nine TX2 operating points swept in the
// paper's Figures 10-15 (2/3/4 cores × 0.8/1.5/2.2 GHz).
func PaperOperatingPoints() []OperatingPoint { return compute.PaperOperatingPoints() }

// DeriveSeed deterministically derives a per-run seed from a sweep's base
// seed and the run's identity; see the engine's seed-derivation contract
// (identical results at any worker count).
func DeriveSeed(baseSeed int64, workload string, cores int, freqGHz float64, repeat int) int64 {
	return core.DeriveSeed(baseSeed, workload, cores, freqGHz, repeat)
}

// MaxVehicles is the largest fleet WithVehicles accepts.
const MaxVehicles = core.MaxVehicles

// DeriveVehicleSeed derives drone `vehicle`'s seed within a multi-vehicle run
// from the run's seed: drone 0 keeps the run seed (its sensor-noise and
// planner streams match the equivalent single-drone run), every other drone
// gets an independent stream mixed from its index alone. Exposed so external
// tooling can reproduce a single drone of a fleet in isolation.
func DeriveVehicleSeed(runSeed int64, vehicle int) int64 {
	return core.DeriveVehicleSeed(runSeed, vehicle)
}

// SweepSpecs expands a base spec into one spec per operating point, each with
// its seed derived from the point's identity — the primitive behind the
// paper's heat maps. Pass the result to NewCampaign. The seed also seeds the
// world, so each cell flies its own fixed world (see docs/EXPERIMENTS.md).
func SweepSpecs(base Spec, points []OperatingPoint) []Spec {
	specs := make([]Spec, len(points))
	for i, pt := range points {
		s := base
		s.Cores, s.FreqGHz = pt.Cores, pt.FreqGHz
		s.Seed = DeriveSeed(base.Seed, base.Workload, pt.Cores, pt.FreqGHz, 0)
		specs[i] = s
	}
	return specs
}

// RepeatSpecs expands a base spec into n statistically independent repeats of
// the same configuration, each with its seed derived from the repeat index
// (the Table II pattern).
func RepeatSpecs(base Spec, n int) []Spec {
	c := base.Canonical()
	specs := make([]Spec, n)
	for i := range specs {
		s := base
		s.Seed = DeriveSeed(base.Seed, c.Workload, c.Cores, c.FreqGHz, i)
		specs[i] = s
	}
	return specs
}
