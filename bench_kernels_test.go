// Kernel benchmark suite: octomap insertion throughput, collision-check and
// planner query latency, and the end-to-end sweep, each measured against a
// frozen copy of the seed's pre-optimisation implementation ("legacy") so the
// speedup of the chunked voxel map and the spatial-index planners stays
// visible — and regressable — forever.
//
// The legacy implementations in this file are deliberately verbatim copies of
// the seed's hash-map octomap and O(n²)/O(n) planners. They are test-only
// reference baselines; do not "improve" them.
//
// TestEmitBenchJSON (gated by MAVBENCH_BENCH_JSON=1) runs the suite
// programmatically and writes machine-readable BENCH_octomap.json,
// BENCH_planning.json and BENCH_sweep.json at the repository root — or under
// MAVBENCH_BENCH_DIR when set, which is how CI generates a fresh run to gate
// against the committed baselines with cmd/mavbench-benchdiff:
//
//	MAVBENCH_BENCH_JSON=1 go test -run TestEmitBenchJSON -v .
//	MAVBENCH_BENCH_JSON=1 MAVBENCH_BENCH_DIR=/tmp/bench go test -run TestEmitBenchJSON -v .
package mavbench_test

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mavbench/internal/geom"
	"mavbench/internal/octomap"
	"mavbench/internal/planning"
)

// ---------------------------------------------------------------------------
// Synthetic sensor scans shared by the octomap benchmarks.

// benchScans builds a deterministic set of depth-camera-like scans: the
// sensor moves along a diagonal while observing a wall grid, so rays carve
// overlapping free-space corridors exactly like a mission's perception
// stream.
func benchScans(n int) (origins []geom.Vec3, scans [][]geom.Vec3) {
	rng := rand.New(rand.NewSource(42))
	for s := 0; s < n; s++ {
		t := float64(s) / float64(n)
		origin := geom.V3(-30+60*t, -20+40*t, 5+2*math.Sin(6*t))
		var pts []geom.Vec3
		for i := 0; i < 24; i++ {
			for j := 0; j < 18; j++ {
				dir := geom.V3(1, (float64(i)-12)/16, (float64(j)-9)/20).Unit()
				depth := 8 + 10*rng.Float64()
				pts = append(pts, origin.Add(dir.Scale(depth)))
			}
		}
		origins = append(origins, origin)
		scans = append(scans, pts)
	}
	return origins, scans
}

func benchBounds() geom.AABB {
	return geom.NewAABB(geom.V3(-50, -50, -5), geom.V3(50, 50, 25))
}

// pointCloudInserter is the insertion surface shared by the chunked map and
// the legacy reference.
type pointCloudInserter interface {
	InsertPointCloud(origin geom.Vec3, points []geom.Vec3, maxRange float64)
}

func runOctomapInsertBench(b *testing.B, fresh func() pointCloudInserter) {
	origins, scans := benchScans(32)
	pointsPerScan := len(scans[0])
	b.ResetTimer()
	var m pointCloudInserter
	for i := 0; i < b.N; i++ {
		if i%len(scans) == 0 {
			// Fresh map every full sweep so steady-state density (not
			// unbounded accumulation) is what gets measured.
			b.StopTimer()
			m = fresh()
			b.StartTimer()
		}
		m.InsertPointCloud(origins[i%len(scans)], scans[i%len(scans)], 20)
	}
	b.ReportMetric(float64(pointsPerScan)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkOctomapInsert(b *testing.B) {
	for _, res := range []float64{0.15, 0.80} {
		res := res
		b.Run(fmt.Sprintf("chunked/res=%.2f", res), func(b *testing.B) {
			runOctomapInsertBench(b, func() pointCloudInserter { return octomap.New(res, benchBounds()) })
		})
		b.Run(fmt.Sprintf("legacy/res=%.2f", res), func(b *testing.B) {
			runOctomapInsertBench(b, func() pointCloudInserter { return newLegacyMap(res, benchBounds()) })
		})
	}
}

// collisionMap builds an observed map with scattered column obstacles, the
// shape the planners sweep against.
func buildCollisionMaps(res float64) (*octomap.Map, *legacyMap) {
	m := octomap.New(res, benchBounds())
	lm := newLegacyMap(res, benchBounds())
	origins, scans := benchScans(16)
	for i := range scans {
		m.InsertPointCloud(origins[i], scans[i], 20)
		lm.InsertPointCloud(origins[i], scans[i], 20)
	}
	return m, lm
}

func runCollisionBench(b *testing.B, sphere func(p geom.Vec3, radius float64) bool, segment func(a, b geom.Vec3, radius float64) bool) {
	rng := rand.New(rand.NewSource(7))
	var probes []geom.Vec3
	for i := 0; i < 256; i++ {
		probes = append(probes, geom.V3(-30+60*rng.Float64(), -20+40*rng.Float64(), 2+8*rng.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		q := probes[(i+17)%len(probes)]
		sphere(p, 0.5)
		segment(p, q, 0.5)
	}
}

func BenchmarkCollisionCheck(b *testing.B) {
	m, lm := buildCollisionMaps(0.20)
	b.Run("chunked", func(b *testing.B) {
		runCollisionBench(b,
			func(p geom.Vec3, r float64) bool { return m.CollidesSphere(p, r, false) },
			func(p, q geom.Vec3, r float64) bool { return m.SegmentCollides(p, q, r, false) })
	})
	b.Run("legacy", func(b *testing.B) {
		runCollisionBench(b,
			func(p geom.Vec3, r float64) bool { return lm.CollidesSphere(p, r, false) },
			func(p, q geom.Vec3, r float64) bool { return lm.SegmentCollides(p, q, r, false) })
	})
}

// ---------------------------------------------------------------------------
// Planner query benchmarks: current (spatial-index) planners on the chunked
// map versus the seed's planners on the seed's map.

func plannerRequest(seed int64) planning.Request {
	return planning.Request{
		Start: geom.V3(-28, -18, 5),
		// The goal clears the benchmark map's diagonal wall band, so every
		// planner finds a path: the benchmark measures realistic mission
		// planning latency, not just budget exhaustion.
		Goal:          geom.V3(28, 18, 12),
		Bounds:        benchBounds(),
		Radius:        0.5,
		GoalTolerance: 1.5,
		MaxIterations: 6000,
		StepSize:      3,
		Seed:          seed,
	}
}

func runPlannerBench(b *testing.B, plan func(req planning.Request) planning.Result) {
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := plan(plannerRequest(int64(1000 + i%8)))
		if res.Found {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "found_rate")
}

func BenchmarkPlannerQuery(b *testing.B) {
	m, lm := buildCollisionMaps(0.20)
	current := map[string]planning.Planner{
		"rrt":         &planning.RRT{},
		"rrt_connect": &planning.RRTConnect{},
		"prm":         &planning.PRM{},
	}
	legacy := map[string]func(req planning.Request, c planning.CollisionChecker) planning.Result{
		"rrt":         legacyRRTPlan,
		"rrt_connect": legacyRRTConnectPlan,
		"prm":         legacyPRMPlan,
	}
	for _, name := range []string{"rrt", "rrt_connect", "prm"} {
		name := name
		b.Run(name+"/current", func(b *testing.B) {
			runPlannerBench(b, func(req planning.Request) planning.Result {
				return current[name].Plan(req, planning.NewMapChecker(m, benchBounds().Min.Z+0.8, benchBounds().Max.Z-0.5))
			})
		})
		b.Run(name+"/legacy", func(b *testing.B) {
			runPlannerBench(b, func(req planning.Request) planning.Result {
				return legacy[name](req, newLegacyMapChecker(lm, benchBounds().Min.Z+0.8, benchBounds().Max.Z-0.5))
			})
		})
	}
}

// TestPlannersMatchLegacy pins the planner rewrite to the seed's behaviour
// beyond the golden traces: on a shared map, every planner must return
// exactly the path, iteration count and collision-check count the seed's
// brute-force implementation returns, across seeds.
func TestPlannersMatchLegacy(t *testing.T) {
	m, lm := buildCollisionMaps(0.20)
	current := map[string]planning.Planner{
		"rrt":         &planning.RRT{},
		"rrt_connect": &planning.RRTConnect{},
		"prm":         &planning.PRM{},
	}
	legacy := map[string]func(req planning.Request, c planning.CollisionChecker) planning.Result{
		"rrt":         legacyRRTPlan,
		"rrt_connect": legacyRRTConnectPlan,
		"prm":         legacyPRMPlan,
	}
	for name := range current {
		for seed := int64(1); seed <= 4; seed++ {
			// A lighter budget than the benchmark request: the legacy PRM's
			// O(n²) scan at full budget would dominate the test suite's
			// runtime without pinning anything extra. The in-band goal is
			// hard to reach, so this also pins the planners' failure paths.
			req := plannerRequest(seed)
			req.Goal = geom.V3(28, 18, 5)
			req.MaxIterations = 2000
			wreq := req
			got := current[name].Plan(req, planning.NewMapChecker(m, benchBounds().Min.Z+0.8, benchBounds().Max.Z-0.5))
			want := legacy[name](wreq, newLegacyMapChecker(lm, benchBounds().Min.Z+0.8, benchBounds().Max.Z-0.5))
			if got.Found != want.Found || got.Iterations != want.Iterations || got.Checks != want.Checks {
				t.Fatalf("%s seed %d: (found=%v it=%d checks=%d) diverged from legacy (found=%v it=%d checks=%d)",
					name, seed, got.Found, got.Iterations, got.Checks, want.Found, want.Iterations, want.Checks)
			}
			if len(got.Path.Waypoints) != len(want.Path.Waypoints) {
				t.Fatalf("%s seed %d: path length %d != legacy %d", name, seed, len(got.Path.Waypoints), len(want.Path.Waypoints))
			}
			for i := range got.Path.Waypoints {
				if got.Path.Waypoints[i] != want.Path.Waypoints[i] {
					t.Fatalf("%s seed %d: waypoint %d %v != legacy %v", name, seed, i, got.Path.Waypoints[i], want.Path.Waypoints[i])
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// BENCH_*.json emission.

type benchEntry struct {
	Name     string             `json:"name"`
	NsPerOp  float64            `json:"ns_per_op"`
	Ops      int                `json:"ops"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	SpeedupX float64            `json:"speedup_vs_legacy_x,omitempty"`
}

type benchFile struct {
	Suite       string       `json:"suite"`
	Description string       `json:"description"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	Entries     []benchEntry `json:"entries"`
}

func runBench(name string, fn func(b *testing.B)) benchEntry {
	r := testing.Benchmark(fn)
	e := benchEntry{Name: name, NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N), Ops: r.N}
	if len(r.Extra) > 0 {
		e.Metrics = map[string]float64{}
		for k, v := range r.Extra {
			e.Metrics[k] = v
		}
	}
	return e
}

func writeBenchFile(t *testing.T, path, suite, desc string, entries []benchEntry) {
	if dir := os.Getenv("MAVBENCH_BENCH_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, path)
	}
	f := benchFile{
		Suite:       suite,
		Description: desc,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Entries:     entries,
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", path, len(entries))
}

// pairSpeedups fills SpeedupX on every ".../current" or ".../chunked" entry
// from its ".../legacy" sibling.
func pairSpeedups(entries []benchEntry) {
	byName := map[string]float64{}
	for _, e := range entries {
		byName[e.Name] = e.NsPerOp
	}
	for i, e := range entries {
		var legacyName string
		switch {
		case len(e.Name) > 8 && e.Name[len(e.Name)-8:] == "/current":
			legacyName = e.Name[:len(e.Name)-8] + "/legacy"
		case hasPrefixSeg(e.Name, "chunked"):
			legacyName = "legacy" + e.Name[len("chunked"):]
		default:
			continue
		}
		if legacyNs, ok := byName[legacyName]; ok && e.NsPerOp > 0 {
			entries[i].SpeedupX = legacyNs / e.NsPerOp
		}
	}
}

func hasPrefixSeg(name, seg string) bool {
	return len(name) >= len(seg) && name[:len(seg)] == seg && (len(name) == len(seg) || name[len(seg)] == '/')
}

// TestEmitBenchJSON regenerates the committed BENCH_*.json files. Gated by an
// environment variable because it re-runs every kernel benchmark (a couple of
// minutes); see docs/PERFORMANCE.md.
func TestEmitBenchJSON(t *testing.T) {
	if os.Getenv("MAVBENCH_BENCH_JSON") == "" {
		t.Skip("set MAVBENCH_BENCH_JSON=1 to regenerate BENCH_*.json")
	}

	// Octomap suite.
	var octoEntries []benchEntry
	for _, res := range []float64{0.15, 0.80} {
		res := res
		octoEntries = append(octoEntries,
			runBench(fmt.Sprintf("chunked/insert/res=%.2f", res), func(b *testing.B) {
				runOctomapInsertBench(b, func() pointCloudInserter { return octomap.New(res, benchBounds()) })
			}),
			runBench(fmt.Sprintf("legacy/insert/res=%.2f", res), func(b *testing.B) {
				runOctomapInsertBench(b, func() pointCloudInserter { return newLegacyMap(res, benchBounds()) })
			}),
		)
	}
	m, lm := buildCollisionMaps(0.20)
	octoEntries = append(octoEntries,
		runBench("chunked/collision_check", func(b *testing.B) {
			runCollisionBench(b,
				func(p geom.Vec3, r float64) bool { return m.CollidesSphere(p, r, false) },
				func(p, q geom.Vec3, r float64) bool { return m.SegmentCollides(p, q, r, false) })
		}),
		runBench("legacy/collision_check", func(b *testing.B) {
			runCollisionBench(b,
				func(p geom.Vec3, r float64) bool { return lm.CollidesSphere(p, r, false) },
				func(p, q geom.Vec3, r float64) bool { return lm.SegmentCollides(p, q, r, false) })
		}),
	)
	pairSpeedups(octoEntries)
	writeBenchFile(t, "BENCH_octomap.json", "octomap",
		"Chunked-dense voxel map vs the seed's per-voxel hash map: point-cloud insertion throughput and sphere/segment collision queries.",
		octoEntries)

	// Planning suite.
	var planEntries []benchEntry
	current := map[string]planning.Planner{
		"rrt":         &planning.RRT{},
		"rrt_connect": &planning.RRTConnect{},
		"prm":         &planning.PRM{},
	}
	legacy := map[string]func(req planning.Request, c planning.CollisionChecker) planning.Result{
		"rrt":         legacyRRTPlan,
		"rrt_connect": legacyRRTConnectPlan,
		"prm":         legacyPRMPlan,
	}
	for _, name := range []string{"rrt", "rrt_connect", "prm"} {
		name := name
		planEntries = append(planEntries,
			runBench("plan/"+name+"/current", func(b *testing.B) {
				runPlannerBench(b, func(req planning.Request) planning.Result {
					return current[name].Plan(req, planning.NewMapChecker(m, benchBounds().Min.Z+0.8, benchBounds().Max.Z-0.5))
				})
			}),
			runBench("plan/"+name+"/legacy", func(b *testing.B) {
				runPlannerBench(b, func(req planning.Request) planning.Result {
					return legacy[name](req, newLegacyMapChecker(lm, benchBounds().Min.Z+0.8, benchBounds().Max.Z-0.5))
				})
			}),
		)
	}
	pairSpeedups(planEntries)
	writeBenchFile(t, "BENCH_planning.json", "planning",
		"Spatial-index planners (grid nearest-neighbour + radius candidates, one swept blocking-voxel query per segment check) vs the seed's O(n^2)/O(n) scans, on identical cluttered maps.",
		planEntries)

	// End-to-end sweep suite: the golden campaign at 1 worker and N workers
	// (a single entry on single-CPU machines). Each count is measured
	// best-of-3: the fastest pass reflects the engine's real throughput, while
	// a single sample on a noisy shared machine can swing ±10% from GC and
	// scheduler interference — too flaky for the runs_per_sec floor gate.
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	var sweepEntries []benchEntry
	for _, workers := range workerCounts {
		workers := workers
		var best time.Duration
		var traces []goldenTrace
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			traces = runGoldenCampaign(t, workers)
			if elapsed := time.Since(start); pass == 0 || elapsed < best {
				best = elapsed
			}
		}
		sweepEntries = append(sweepEntries, benchEntry{
			Name:    fmt.Sprintf("golden_campaign/workers=%d", workers),
			NsPerOp: float64(best.Nanoseconds()),
			Ops:     1,
			Metrics: map[string]float64{
				"runs":         float64(len(traces)),
				"runs_per_sec": float64(len(traces)) / best.Seconds(),
				"wall_seconds": best.Seconds(),
			},
		})
	}
	writeBenchFile(t, "BENCH_sweep.json", "sweep",
		"End-to-end golden campaign (24 missions across all five workloads plus kernel-stressing variants) wall time, best of 3 passes, sequential vs one worker per CPU.",
		sweepEntries)
}

// ---------------------------------------------------------------------------
// Legacy reference implementations (frozen copies of the seed's kernels).

const (
	legacyLogOddsHit  = 0.85
	legacyLogOddsMiss = -0.4
	legacyLogOddsMin  = -2.0
	legacyLogOddsMax  = 3.5
	legacyOccupied    = 0.0
)

type legacyVoxelKey struct{ X, Y, Z int32 }

// legacyMap is the seed's hash-map-of-voxels occupancy map.
type legacyMap struct {
	resolution float64
	bounds     geom.AABB
	leaves     map[legacyVoxelKey]float64
}

func newLegacyMap(resolution float64, bounds geom.AABB) *legacyMap {
	return &legacyMap{resolution: resolution, bounds: bounds, leaves: map[legacyVoxelKey]float64{}}
}

func (m *legacyMap) key(p geom.Vec3) legacyVoxelKey {
	return legacyVoxelKey{
		X: int32(math.Floor(p.X / m.resolution)),
		Y: int32(math.Floor(p.Y / m.resolution)),
		Z: int32(math.Floor(p.Z / m.resolution)),
	}
}

func (m *legacyMap) update(k legacyVoxelKey, delta float64) {
	v := m.leaves[k] + delta
	if v > legacyLogOddsMax {
		v = legacyLogOddsMax
	}
	if v < legacyLogOddsMin {
		v = legacyLogOddsMin
	}
	m.leaves[k] = v
}

func (m *legacyMap) MarkOccupied(p geom.Vec3) {
	if !m.bounds.Contains(p) {
		return
	}
	m.update(m.key(p), legacyLogOddsHit)
}

func (m *legacyMap) MarkFree(p geom.Vec3) {
	if !m.bounds.Contains(p) {
		return
	}
	m.update(m.key(p), legacyLogOddsMiss)
}

func (m *legacyMap) InsertRay(origin, end geom.Vec3, maxRange float64) {
	dir := end.Sub(origin)
	dist := dir.Norm()
	if dist == 0 {
		return
	}
	truncated := false
	if maxRange > 0 && dist > maxRange {
		end = origin.Add(dir.Scale(maxRange / dist))
		dist = maxRange
		truncated = true
	}
	steps := int(dist/m.resolution) + 1
	for i := 0; i < steps; i++ {
		t := float64(i) / float64(steps)
		m.MarkFree(origin.Lerp(end, t))
	}
	if !truncated {
		m.MarkOccupied(end)
	}
}

func (m *legacyMap) InsertPointCloud(origin geom.Vec3, points []geom.Vec3, maxRange float64) {
	for _, p := range points {
		m.InsertRay(origin, p, maxRange)
	}
}

func (m *legacyMap) CollidesSphere(p geom.Vec3, radius float64, treatUnknownAsOccupied bool) bool {
	r := int(math.Ceil(radius/m.resolution)) + 1
	center := m.key(p)
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for dz := -r; dz <= r; dz++ {
				k := legacyVoxelKey{center.X + int32(dx), center.Y + int32(dy), center.Z + int32(dz)}
				vc := geom.Vec3{
					X: (float64(k.X) + 0.5) * m.resolution,
					Y: (float64(k.Y) + 0.5) * m.resolution,
					Z: (float64(k.Z) + 0.5) * m.resolution,
				}
				if vc.Dist(p) > radius+m.resolution*0.87 {
					continue
				}
				lo, ok := m.leaves[k]
				if !ok {
					if treatUnknownAsOccupied {
						return true
					}
					continue
				}
				if lo > legacyOccupied {
					return true
				}
			}
		}
	}
	return false
}

func (m *legacyMap) SegmentCollides(a, b geom.Vec3, radius float64, treatUnknownAsOccupied bool) bool {
	dist := a.Dist(b)
	steps := int(dist/(m.resolution*0.5)) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		if m.CollidesSphere(a.Lerp(b, t), radius, treatUnknownAsOccupied) {
			return true
		}
	}
	return false
}

// legacyMapChecker is the seed's MapChecker (no segment memoisation).
type legacyMapChecker struct {
	m              *legacyMap
	floor, ceiling float64
	checks         int
}

func newLegacyMapChecker(m *legacyMap, floor, ceiling float64) *legacyMapChecker {
	return &legacyMapChecker{m: m, floor: floor, ceiling: ceiling}
}

func (c *legacyMapChecker) PointFree(p geom.Vec3, radius float64) bool {
	c.checks++
	if c.ceiling > c.floor && (p.Z < c.floor || p.Z > c.ceiling) {
		return false
	}
	return !c.m.CollidesSphere(p, radius, false)
}

func (c *legacyMapChecker) SegmentFree(a, b geom.Vec3, radius float64) bool {
	c.checks++
	if c.ceiling > c.floor {
		if a.Z < c.floor || a.Z > c.ceiling || b.Z < c.floor || b.Z > c.ceiling {
			return false
		}
	}
	return !c.m.SegmentCollides(a, b, radius, false)
}

func (c *legacyMapChecker) Checks() int { return c.checks }

// legacyNearest is the seed's brute-force nearest-node scan.
func legacyNearest(nodes []geom.Vec3, p geom.Vec3) int {
	best := 0
	bestD := math.Inf(1)
	for i, n := range nodes {
		if d := n.DistSq(p); d < bestD {
			bestD = d
			best = i
		}
	}
	return best
}

func legacySample(rng *rand.Rand, b geom.AABB, goal geom.Vec3, goalBias float64) geom.Vec3 {
	if rng.Float64() < goalBias {
		return goal
	}
	s := b.Size()
	return geom.Vec3{
		X: b.Min.X + rng.Float64()*s.X,
		Y: b.Min.Y + rng.Float64()*s.Y,
		Z: b.Min.Z + rng.Float64()*s.Z,
	}
}

func legacyTrace(nodes []geom.Vec3, parent []int, leaf int) planning.Path {
	var rev []geom.Vec3
	for i := leaf; i >= 0; i = parent[i] {
		rev = append(rev, nodes[i])
	}
	wps := make([]geom.Vec3, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		wps = append(wps, rev[i])
	}
	return planning.Path{Waypoints: wps}
}

// legacyRRTPlan is the seed's RRT with the O(n) nearest scan.
func legacyRRTPlan(req planning.Request, checker planning.CollisionChecker) planning.Result {
	res := planning.Result{PlannerName: "rrt"}
	if err := req.Validate(); err != nil {
		return res
	}
	goalBias := 0.1
	rng := rand.New(rand.NewSource(req.Seed))
	if !checker.PointFree(req.Start, req.Radius) {
		res.Checks = checker.Checks()
		return res
	}
	nodes := []geom.Vec3{req.Start}
	parent := []int{-1}
	goalIdx := -1
	for it := 0; it < req.MaxIterations; it++ {
		res.Iterations = it + 1
		sample := legacySample(rng, req.Bounds, req.Goal, goalBias)
		ni := legacyNearest(nodes, sample)
		from := nodes[ni]
		dir := sample.Sub(from)
		dist := dir.Norm()
		if dist < 1e-9 {
			continue
		}
		step := req.StepSize
		if dist < step {
			step = dist
		}
		to := from.Add(dir.Scale(step / dist))
		if !req.Bounds.Contains(to) {
			continue
		}
		if !checker.SegmentFree(from, to, req.Radius) {
			continue
		}
		nodes = append(nodes, to)
		parent = append(parent, ni)
		if to.Dist(req.Goal) <= req.GoalTolerance {
			goalIdx = len(nodes) - 1
			break
		}
		if to.Dist(req.Goal) <= req.StepSize*2 && checker.SegmentFree(to, req.Goal, req.Radius) {
			nodes = append(nodes, req.Goal)
			parent = append(parent, len(nodes)-2)
			goalIdx = len(nodes) - 1
			break
		}
	}
	res.Checks = checker.Checks()
	if goalIdx < 0 {
		return res
	}
	res.Found = true
	res.Path = legacyTrace(nodes, parent, goalIdx)
	return res
}

// legacyRRTConnectPlan is the seed's RRT-Connect with O(n) nearest scans.
func legacyRRTConnectPlan(req planning.Request, checker planning.CollisionChecker) planning.Result {
	res := planning.Result{PlannerName: "rrt_connect"}
	if err := req.Validate(); err != nil {
		return res
	}
	rng := rand.New(rand.NewSource(req.Seed))
	if !checker.PointFree(req.Start, req.Radius) || !checker.PointFree(req.Goal, req.Radius) {
		res.Checks = checker.Checks()
		return res
	}
	type tree struct {
		nodes  []geom.Vec3
		parent []int
	}
	a := &tree{nodes: []geom.Vec3{req.Start}, parent: []int{-1}}
	b := &tree{nodes: []geom.Vec3{req.Goal}, parent: []int{-1}}
	extend := func(t *tree, target geom.Vec3) (int, bool) {
		ni := legacyNearest(t.nodes, target)
		from := t.nodes[ni]
		dir := target.Sub(from)
		dist := dir.Norm()
		if dist < 1e-9 {
			return ni, true
		}
		step := req.StepSize
		reached := false
		if dist <= step {
			step = dist
			reached = true
		}
		to := from.Add(dir.Scale(step / dist))
		if !req.Bounds.Contains(to) || !checker.SegmentFree(from, to, req.Radius) {
			return -1, false
		}
		t.nodes = append(t.nodes, to)
		t.parent = append(t.parent, ni)
		return len(t.nodes) - 1, reached
	}
	for it := 0; it < req.MaxIterations; it++ {
		res.Iterations = it + 1
		sample := legacySample(rng, req.Bounds, req.Goal, 0.05)
		ai, _ := extend(a, sample)
		if ai < 0 {
			a, b = b, a
			continue
		}
		target := a.nodes[ai]
		for {
			bi, reached := extend(b, target)
			if bi < 0 {
				break
			}
			if reached {
				pa := legacyTrace(a.nodes, a.parent, ai)
				pb := legacyTrace(b.nodes, b.parent, bi)
				res.Found = true
				res.Path = legacySplice(pa, pb, a.nodes[0] == req.Start)
				res.Checks = checker.Checks()
				return res
			}
		}
		a, b = b, a
	}
	res.Checks = checker.Checks()
	return res
}

func legacySplice(pa, pb planning.Path, aIsStartTree bool) planning.Path {
	reverse := func(w []geom.Vec3) []geom.Vec3 {
		out := make([]geom.Vec3, len(w))
		for i := range w {
			out[i] = w[len(w)-1-i]
		}
		return out
	}
	var startSide, goalSide []geom.Vec3
	if aIsStartTree {
		startSide = pa.Waypoints
		goalSide = pb.Waypoints
	} else {
		startSide = pb.Waypoints
		goalSide = pa.Waypoints
	}
	joined := append(append([]geom.Vec3(nil), startSide...), reverse(goalSide)[1:]...)
	return planning.Path{Waypoints: joined}
}

// legacyPRMPlan is the seed's PRM+A* with the O(n²) neighbour scan.
func legacyPRMPlan(req planning.Request, checker planning.CollisionChecker) planning.Result {
	res := planning.Result{PlannerName: "prm"}
	if err := req.Validate(); err != nil {
		return res
	}
	k := 10
	maxConn := req.StepSize * 4
	rng := rand.New(rand.NewSource(req.Seed))
	if !checker.PointFree(req.Start, req.Radius) || !checker.PointFree(req.Goal, req.Radius) {
		res.Checks = checker.Checks()
		return res
	}
	sampleBudget := req.MaxIterations / 8
	if sampleBudget < 50 {
		sampleBudget = 50
	}
	nodes := []geom.Vec3{req.Start, req.Goal}
	for i := 0; i < sampleBudget; i++ {
		res.Iterations++
		s := legacySample(rng, req.Bounds, req.Goal, 0)
		if checker.PointFree(s, req.Radius) {
			nodes = append(nodes, s)
		}
	}
	type edge struct {
		to   int
		cost float64
	}
	adj := make([][]edge, len(nodes))
	for i := range nodes {
		type cand struct {
			j int
			d float64
		}
		var cands []cand
		for j := range nodes {
			if i == j {
				continue
			}
			d := nodes[i].Dist(nodes[j])
			if d <= maxConn {
				cands = append(cands, cand{j, d})
			}
		}
		for n := 0; n < k && n < len(cands); n++ {
			best := n
			for m := n + 1; m < len(cands); m++ {
				if cands[m].d < cands[best].d {
					best = m
				}
			}
			cands[n], cands[best] = cands[best], cands[n]
			j, d := cands[n].j, cands[n].d
			if checker.SegmentFree(nodes[i], nodes[j], req.Radius) {
				adj[i] = append(adj[i], edge{to: j, cost: d})
				adj[j] = append(adj[j], edge{to: i, cost: d})
			}
		}
	}
	const startIdx, goalIdx = 0, 1
	dist := make([]float64, len(nodes))
	prev := make([]int, len(nodes))
	closed := make([]bool, len(nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[startIdx] = 0
	pq := &legacyAstarQueue{}
	heap.Init(pq)
	heap.Push(pq, legacyAstarItem{node: startIdx, priority: nodes[startIdx].Dist(nodes[goalIdx])})
	for pq.Len() > 0 {
		item := heap.Pop(pq).(legacyAstarItem)
		u := item.node
		if closed[u] {
			continue
		}
		closed[u] = true
		if u == goalIdx {
			break
		}
		for _, e := range adj[u] {
			if closed[e.to] {
				continue
			}
			nd := dist[u] + e.cost
			if nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = u
				heap.Push(pq, legacyAstarItem{node: e.to, priority: nd + nodes[e.to].Dist(nodes[goalIdx])})
			}
		}
	}
	res.Checks = checker.Checks()
	if math.IsInf(dist[goalIdx], 1) {
		return res
	}
	var rev []geom.Vec3
	for i := goalIdx; i >= 0; i = prev[i] {
		rev = append(rev, nodes[i])
		if i == startIdx {
			break
		}
	}
	wps := make([]geom.Vec3, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		wps = append(wps, rev[i])
	}
	res.Found = true
	res.Path = planning.Path{Waypoints: wps}
	return res
}

type legacyAstarItem struct {
	node     int
	priority float64
}

type legacyAstarQueue []legacyAstarItem

func (q legacyAstarQueue) Len() int           { return len(q) }
func (q legacyAstarQueue) Less(i, j int) bool { return q[i].priority < q[j].priority }
func (q legacyAstarQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *legacyAstarQueue) Push(x any)        { *q = append(*q, x.(legacyAstarItem)) }
func (q *legacyAstarQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
