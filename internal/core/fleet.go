// Run assembly: expands one Params into N ≥ 1 per-drone simulators over
// clones of the shared world and runs them through sim.Fleet, which flies
// every mission. A single-drone run is a fleet of one.
package core

import (
	"fmt"
	"math"

	"mavbench/internal/compute"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
	"mavbench/internal/sim"
	"mavbench/internal/telemetry"
)

// runFleet executes a mission. The world passed in (built or
// cache-cloned for the base Params — vehicle count never enters WorldHash) is
// given to drone 0; every other drone receives a deep clone, which env.Clone
// guarantees behaves bit-identically — so all drones fly "the same" world,
// including its dynamic obstacles, without sharing mutable state. Each drone
// gets its own simulator with a seed from DeriveVehicleSeed and a start
// position offset from the workload's start, and the workload's Setup sees
// VehicleIndex/VehicleCount to apply its coordination strategy. Drone 0 keeps
// the run seed, the uncloned world and the workload's start, so a fleet of
// one flies exactly the single-drone mission.
func runFleet(p Params, w Workload, platform compute.Platform, world *env.World, start geom.Vec3) (Result, error) {
	n := p.VehicleCount()
	sims := make([]*sim.Simulator, n)
	for i := 0; i < n; i++ {
		pi := p
		pi.Seed = DeriveVehicleSeed(p.Seed, i)
		wi := world
		if i > 0 {
			wi = world.Clone()
		}
		cfg := simConfig(pi, platform)
		cfg.VehicleIndex = i
		cfg.VehicleCount = n
		si, err := sim.New(cfg, wi, fleetStart(wi, start, i, n, physics.DefaultParams().RadiusM))
		if err != nil {
			return Result{}, fmt.Errorf("core: building drone %d/%d for %s: %w", i, n, p.Workload, err)
		}
		if err := w.Setup(si, pi); err != nil {
			return Result{}, fmt.Errorf("core: setting up %s drone %d/%d: %w", p.Workload, i, n, err)
		}
		sims[i] = si
	}
	fleet, err := sim.NewFleet(sims...)
	if err != nil {
		return Result{}, err
	}
	reports, err := fleet.Run()
	// The reports are plain values — nothing in them references
	// simulator-owned state — so pooled resources can be released first.
	for _, s := range sims {
		s.Teardown()
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{Report: telemetry.Merge(reports), Params: p, PlatformName: platform.Name}
	if n > 1 {
		// Single-drone results carry no per-drone list (the Result JSON
		// contract: vehicle_reports is absent for classic runs).
		res.VehicleReports = reports
	}
	return res, nil
}

// fleetStart places drone `vehicle` of n on a deterministic ring around the
// workload's start position. Drone 0 keeps the start exactly (preserving the
// single-vehicle trajectory for the lead drone); the others are spaced far
// enough apart that parked fleets never trigger the inter-vehicle sphere
// test, then nudged off occupied ground by the same outward spiral the
// workloads use for their own starts.
func fleetStart(w *env.World, start geom.Vec3, vehicle, n int, radius float64) geom.Vec3 {
	if vehicle <= 0 || n <= 1 {
		return start
	}
	sep := math.Max(3.0, 6*radius)
	angle := 2 * math.Pi * float64(vehicle-1) / float64(n-1)
	c := geom.V3(start.X+sep*math.Cos(angle), start.Y+sep*math.Sin(angle), start.Z)
	if !w.Bounds.Contains(geom.V3(c.X, c.Y, 2)) {
		c = geom.V3(start.X-sep*math.Cos(angle), start.Y-sep*math.Sin(angle), start.Z)
	}
	if !w.Occupied(geom.V3(c.X, c.Y, 2), 2*radius) {
		return c
	}
	for r := sep; r < 80; r += sep {
		for a := 0.0; a < 2*math.Pi; a += 0.5 {
			cand := geom.V3(c.X+r*math.Cos(a), c.Y+r*math.Sin(a), 2)
			if w.Bounds.Contains(cand) && !w.Occupied(cand, 2*radius) {
				return geom.V3(cand.X, cand.Y, start.Z)
			}
		}
	}
	return c
}
