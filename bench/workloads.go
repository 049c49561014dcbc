package main

import (
	"fmt"

	"mavbench/pkg/mavbench"
)

// Every mission flies a shrunken world, so a pass takes one to three
// seconds on one core while still closing the full perception → planning →
// control loop.
const worldScale = 0.35

// workload is one benchmark input set: a fixed list of mission specs and the
// number of closed-loop clients that fly them.
type workload struct {
	name    string
	clients int
	// horizon bounds every mission, in simulated seconds. explore and swarm
	// fly 180 s rather than 420 s so that a pass of either takes about 2.5 s
	// on the reference machine and each child fits more than one timed pass
	// in its share of the measuring time.
	horizon float64
	// specs builds the mission list from the benchmark seed.
	specs func(seed int64, horizon float64) ([]mavbench.Spec, error)
}

// workloads are the four benchmark workloads; bench/README.md records why
// each was chosen and which layers it stresses.
var workloads = []workload{
	{name: "delivery", clients: 1, horizon: 420, specs: deliverySpecs},
	{name: "explore", clients: 1, horizon: 180, specs: exploreSpecs},
	{name: "sweep", clients: 2, horizon: 420, specs: sweepSpecs},
	{name: "swarm", clients: 1, horizon: 180, specs: swarmSpecs},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// specList accumulates validated specs, keeping the first error.
type specList struct {
	horizon float64
	specs   []mavbench.Spec
	err     error
}

func (l *specList) add(name string, seed int64, opts ...mavbench.Option) {
	if l.err != nil {
		return
	}
	opts = append(opts, mavbench.WithSeed(seed), mavbench.WithWorldScale(worldScale),
		mavbench.WithMaxMissionTime(l.horizon))
	s, err := mavbench.NewSpec(name, opts...)
	if err != nil {
		l.err = err
		return
	}
	l.specs = append(l.specs, s)
}

// delivery is perception-bound: depth ray casting plus point-cloud and
// octomap inserts dominate host time, across four obstacle densities.
func deliverySpecs(seed int64, horizon float64) ([]mavbench.Spec, error) {
	l := specList{horizon: horizon}
	for _, sc := range []string{"urban-sparse", "urban-default", "urban-dense", "disaster-default"} {
		for s := seed; s < seed+4; s++ {
			l.add("package_delivery", s, mavbench.WithScenario(sc))
		}
	}
	return l.specs, l.err
}

// explore is planning-bound: frontier exploration and PRM queries read the
// octomap that delivery mostly writes.
func exploreSpecs(seed int64, horizon float64) ([]mavbench.Spec, error) {
	l := specList{horizon: horizon}
	for s := seed; s < seed+4; s++ {
		l.add("mapping_3d", s)
		l.add("search_and_rescue", s)
		l.add("package_delivery", s, mavbench.WithPlanner("prm"))
	}
	return l.specs, l.err
}

// sweep flies the paper's 3×3 operating points with the seed held fixed per
// (workload, seed), so 8 of every 9 missions fly a world-cache clone.
func sweepSpecs(seed int64, horizon float64) ([]mavbench.Spec, error) {
	l := specList{horizon: horizon}
	for s := seed; s < seed+2; s++ {
		for _, name := range []string{"scanning", "aerial_photography"} {
			for _, op := range mavbench.PaperOperatingPoints() {
				l.add(name, s, mavbench.WithOperatingPoint(op.Cores, op.FreqGHz))
			}
		}
	}
	return l.specs, l.err
}

// swarm is the only workload on the multi-vehicle lockstep path.
func swarmSpecs(seed int64, horizon float64) ([]mavbench.Spec, error) {
	l := specList{horizon: horizon}
	for s := seed; s < seed+4; s++ {
		l.add("search_and_rescue", s, mavbench.WithVehicles(3))
		l.add("package_delivery", s, mavbench.WithVehicles(2))
		l.add("mapping_3d", s, mavbench.WithVehicles(2))
	}
	return l.specs, l.err
}

// distinctWorlds counts the world identities a spec list flies: the number
// of builds a race-free world cache performs.
func distinctWorlds(specs []mavbench.Spec) int {
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.WorldHash()] = true
	}
	return len(seen)
}
