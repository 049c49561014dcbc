package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"mavbench/pkg/mavbench"
)

// A child process runs one workload in one of two phases. It prints "ready"
// once its specs are built, "warm" after the untimed warm-up pass (which
// fills the world cache, pools and memo tables), and then its childReport as
// one JSON line.
const (
	phaseE2E   = "e2e"   // timed passes, tracing off
	phaseTrace = "trace" // one untraced and one traced pass at one client
)

// childReport is the result of one phase.
type childReport struct {
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Digest     string   `json:"digest"`
	Info       []string `json:"info"`
	Mismatches []string `json:"mismatches,omitempty"`
	// Samples are the e2e phase's raw measurements, which the parent pools
	// across its child processes.
	Samples samples `json:"samples"`
	// Metrics are the trace phase's per-layer metrics.
	Metrics map[string]stat `json:"metrics,omitempty"`
}

// samples are the measurements of one e2e child. Times are unscaled; the
// scales convert them to the reference speed.
type samples struct {
	Rates     []float64   `json:"rates"`     // simulated drone-seconds per second, per pass
	Allocs    []float64   `json:"allocs"`    // KB allocated per simulated drone-second, per pass
	Latencies [][]float64 `json:"latencies"` // ms, per pass and mission
	Scales    []float64   `json:"scales"`    // per pass
	PeakRSSMB float64     `json:"peak_rss_mb"`
	// WarmScale is the warm-up pass's scale, and WarmKernelS the reference
	// kernel's share of its time, which set-up leaves out.
	WarmScale   float64 `json:"warm_scale"`
	WarmKernelS float64 `json:"warm_kernel_s"`
}

// runChild builds the workload's specs and measures one phase, writing the
// protocol lines to out.
func runChild(ctx context.Context, w workload, seed int64, seconds float64, phase string, out io.Writer) error {
	if phase != phaseE2E && phase != phaseTrace {
		return fmt.Errorf("unknown phase %q", phase)
	}
	specs, err := w.specs(seed, w.horizon)
	if err != nil {
		return err
	}
	for _, s := range specs {
		_ = s.Hash() // part of set-up: every campaign run addresses its spec
	}
	fmt.Fprintln(out, "ready")
	rep, err := measurePhase(ctx, w.clients, specs, seconds, phase, func() { fmt.Fprintln(out, "warm") })
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// measurePhase flies the untimed warm-up pass, calls warmed, and measures
// the phase.
func measurePhase(ctx context.Context, clients int, specs []mavbench.Spec, seconds float64, phase string, warmed func()) (childReport, error) {
	wc := mavbench.NewWorldCache()
	warm := runPass(ctx, specs, clients, wc)
	warmOutcomes, digest, err := warm.outcomes()
	if err != nil {
		return childReport{}, err
	}
	warmed()
	rep := childReport{Digest: digest}
	rep.Samples.WarmScale, rep.Samples.WarmKernelS = warm.scale(), warm.kernel.Seconds()
	droneS := droneSeconds(warm.results)
	switch phase {
	case phaseE2E:
		err = measureEndToEnd(ctx, &rep, clients, specs, wc, seconds, droneS)
	case phaseTrace:
		err = measureLayers(ctx, &rep, specs, wc, warmOutcomes)
	}
	st := wc.Stats()
	rep.Info = append(rep.Info,
		fmt.Sprintf("env.world_builds %d against %d distinct worlds; world-cache hits %d", st.Misses, distinctWorlds(specs), st.Hits),
		qofLine(warm.results, droneS))
	return rep, err
}

// measureEndToEnd runs timed passes, at least one, until seconds have
// elapsed, recording each pass's throughput, allocation, mission latencies
// and scale. Throughput and allocation are per simulated drone-second, the
// pass's simulated work: every pass flies the same droneS, but how long a
// mission flies depends on its seed, so a per-mission figure would move
// with the seed as much as with the program.
//
// Peak RSS comes from one more pass, flown after the timed ones from a
// clean memory state: the child collects garbage, returns the free heap to
// the operating system and resets its peak first. A peak over the timed
// passes would grow with every pass the process flies, as the heap settles
// towards the garbage collector's steady state, and so count how many
// passes fitted into the measuring time. The collection is kept out of the
// timed passes because it empties the sync.Pools they draw on, which raised
// swarm's allocation per drone-second by a seed-dependent 1-10%.
func measureEndToEnd(ctx context.Context, rep *childReport, clients int, specs []mavbench.Spec, wc *mavbench.WorldCache, seconds, droneS float64) error {
	var ms runtime.MemStats
	start := time.Now()
	for len(rep.Samples.Rates) == 0 || time.Since(start).Seconds() < seconds {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		p := runPass(ctx, specs, clients, wc)
		runtime.ReadMemStats(&ms)
		rep.Samples.Allocs = append(rep.Samples.Allocs, float64(ms.TotalAlloc-before)/1e3/droneS)
		rep.Samples.Rates = append(rep.Samples.Rates, droneS/p.wall.Seconds())
		lat := make([]float64, len(p.latency))
		for i, d := range p.latency {
			lat[i] = float64(d) / 1e6
		}
		rep.Samples.Latencies = append(rep.Samples.Latencies, lat)
		rep.Samples.Scales = append(rep.Samples.Scales, p.scale())
		if err := checkPass(rep, p, fmt.Sprintf("timed pass %d", len(rep.Samples.Rates))); err != nil {
			return err
		}
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	p := runPass(ctx, specs, clients, wc)
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.Samples.PeakRSSMB = peak
	return checkPass(rep, p, "peak-memory pass")
}

// checkPass counts a pass's missions and records a mismatch when its
// outcome digest differs from the warm-up's.
func checkPass(rep *childReport, p pass, name string) error {
	_, digest, err := p.outcomes()
	if err != nil {
		return err
	}
	if digest != rep.Digest {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s outcome digest %s differs from the warm-up's %s", name, digest, rep.Digest))
	}
	rep.Attempted += len(p.results)
	rep.Failed += p.failures()
	return nil
}

// planningKernels are the planner kernels whose invocations count as plans.
var planningKernels = []string{
	"motion_planning_shortest_path",
	"motion_planning_frontier_exploration",
	"motion_planning_lawnmower",
}

// measureLayers flies one untraced pass and one traced pass, both at one
// client, checks that their reports agree, and reports the per-layer
// metrics of the traced pass.
func measureLayers(ctx context.Context, rep *childReport, specs []mavbench.Spec, wc *mavbench.WorldCache, want [][]byte) error {
	untraced := runPass(ctx, specs, 1, wc)
	traced, err := runTracedPass(ctx, specs)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		pass
	}{{"untraced one-client", untraced}, {"traced", traced.pass}} {
		got, _, err := p.outcomes()
		if err != nil {
			return err
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s report of mission %d (%s) differs from the warm-up's", p.name, i, specs[i].Workload))
			}
		}
		rep.Attempted += len(specs)
		rep.Failed += p.failures()
	}

	n := float64(len(specs))
	m := map[string]stat{}
	perMission := func(name string, v float64, unit string) { m[name] = single(v/n, unit) }
	var eventTime time.Duration
	var events int64
	for c := firstEventClass; c <= lastEventClass; c++ {
		eventTime += traced.ns[c]
		events += traced.events[c]
		if c == classOther {
			continue // reported through bench.attributed_frac
		}
		name := classNames[c]
		perMission(name+"_ms", float64(traced.ns[c])/1e6, "ms")
		perMission(name+"_events", float64(traced.events[c]), "count")
		perEvent := 0.0
		if traced.events[c] > 0 {
			perEvent = float64(traced.ns[c]) / 1e3 / float64(traced.events[c])
		}
		m[name+"_us_per_event"] = single(perEvent, "us")
	}
	perMission("des.events", float64(events), "count")
	m["des.ns_per_event"] = single(float64(eventTime)/float64(events), "ns")
	for _, c := range []class{classProvision, classSetup, classFinish, classWorldBuild} {
		perMission(classNames[c]+"_ms", float64(traced.ns[c])/1e6, "ms")
	}

	var inserts, plans, replans float64
	for _, r := range traced.results {
		inserts += r.Report.Counters["octomap_inserts"]
		replans += r.Report.Counters["replans"]
		for _, k := range planningKernels {
			plans += float64(r.Report.KernelCount[k])
		}
	}
	st := wc.Stats()
	m["env.world_builds"] = single(float64(st.Misses), "count")
	m["env.world_cache_hits"] = single(float64(st.Hits), "count")
	perMission("octomap.inserts", inserts, "count")
	perMission("planning.plans", plans, "count")
	perMission("planning.replans", replans, "count")
	perMission("ros.jobs", float64(traced.jobs), "count")
	perMission("ros.queue_wait_s", traced.queueWait.Seconds(), "sim_s")
	perMission("ros.depth_frames_dropped", float64(traced.dropped), "count")

	var untracedTime time.Duration
	for _, d := range untraced.latency {
		untracedTime += d
	}
	m["bench.attributed_frac"] = single(1-float64(traced.ns[classOther])/float64(traced.wall), "fraction")
	// The traced pass builds its worlds into a fresh cache; the untraced one
	// clones them, so world building is left out of the comparison.
	m["bench.trace_overhead_frac"] = single(float64(traced.wall-traced.ns[classWorldBuild])/float64(untracedTime)-1, "fraction")
	rep.Metrics = m
	return nil
}

// droneSeconds is the simulated time the missions' drones flew, summed over
// drones: a fleet's drones each fly until their own end, which its
// per-drone reports record.
func droneSeconds(results []mavbench.Result) float64 {
	var s float64
	for _, r := range results {
		if len(r.VehicleReports) == 0 {
			s += r.Report.MissionTimeS
		}
		for _, v := range r.VehicleReports {
			s += v.MissionTimeS
		}
	}
	return s
}

// qofLine summarizes the simulated quality of flight: information only,
// never compared.
func qofLine(results []mavbench.Result, droneS float64) string {
	var ok, timeS, energy float64
	for _, r := range results {
		if r.Report.Success {
			ok++
		}
		timeS += r.Report.MissionTimeS
		energy += r.Report.TotalEnergyKJ
	}
	n := float64(len(results))
	return fmt.Sprintf("qof success_rate %.3f mean_mission_time_s %.1f mean_energy_kj %.2f drone_s_per_pass %.1f", ok/n, timeS/n, energy/n, droneS)
}

// resetPeakRSS sets the process's peak resident set size to its current
// resident set size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}
