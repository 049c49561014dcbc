package mavbench

import (
	"context"
	"encoding/json"
	"testing"

	"mavbench/internal/core"
)

// sameJSON reports whether two values marshal identically — the equality that
// matters for wire-visible results (Report holds maps, so == won't do).
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// TestWorldCacheBitIdenticalToCold is the cache's correctness contract: a
// compute-axis sweep (one world, several operating points) run with a warm
// world cache must produce byte-for-byte the same results as the same sweep
// with caching disabled. A clone that drifted from the built world — obstacle
// layout, patrol phase, or RNG position — would surface here as a report
// diff on a real workload.
func TestWorldCacheBitIdenticalToCold(t *testing.T) {
	points := PaperOperatingPoints()
	sweep := []OperatingPoint{points[0], points[4], points[8]}
	var specs []Spec
	for _, pt := range sweep {
		specs = append(specs, mustSpec(t, "scanning",
			WithSeed(42),
			WithWorldScale(0.3),
			WithOperatingPoint(pt.Cores, pt.FreqGHz),
		))
	}
	for _, s := range specs[1:] {
		if s.WorldHash() != specs[0].WorldHash() {
			t.Fatalf("compute sweep does not share a world: %s vs %s", s.WorldHash(), specs[0].WorldHash())
		}
	}

	cold, err := NewCampaign(specs...).SetWorldCache(nil).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewWorldCache()
	warm, err := NewCampaign(specs...).SetWorldCache(cache).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(cold) != len(specs) || len(warm) != len(specs) {
		t.Fatalf("got %d cold / %d warm results, want %d", len(cold), len(warm), len(specs))
	}
	for i := range cold {
		if !cold[i].OK() {
			t.Fatalf("cold run %d failed: %v", i, cold[i].Err())
		}
		if !sameJSON(t, cold[i], warm[i]) {
			t.Errorf("run %d diverged with a warm world cache:\ncold %+v\nwarm %+v", i, cold[i], warm[i])
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != int64(len(specs)-1) {
		t.Errorf("cache stats = %d misses / %d hits, want 1 / %d (one build, clones after)",
			st.Misses, st.Hits, len(specs)-1)
	}
}

// TestWorldCacheBuildsWorldOnce counts actual world constructions through the
// workload's own eyes: a cached compute sweep calls World exactly once, a
// cache-disabled sweep once per run.
func TestWorldCacheBuildsWorldOnce(t *testing.T) {
	wl := &testWorkload{name: "api_worldcache_once"}
	core.RegisterFor(t, wl)
	points := PaperOperatingPoints()
	var specs []Spec
	for _, pt := range []OperatingPoint{points[0], points[4], points[8]} {
		specs = append(specs, mustSpec(t, wl.name,
			WithSeed(7),
			WithMaxMissionTime(30),
			WithOperatingPoint(pt.Cores, pt.FreqGHz),
		))
	}

	if _, err := NewCampaign(specs...).SetWorldCache(NewWorldCache()).Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := wl.runs.Load(); n != 1 {
		t.Errorf("cached sweep built the world %d times, want 1", n)
	}

	wl.runs.Store(0)
	if _, err := NewCampaign(specs...).SetWorldCache(nil).Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := wl.runs.Load(); n != int64(len(specs)) {
		t.Errorf("uncached sweep built the world %d times, want %d", n, len(specs))
	}
}

// TestDifficultySweepSpecsPairWorlds pins the sweep/world-hash contract that
// makes operating-point comparisons fair: sweeping difficulty at two
// different operating points yields pairwise-identical world hashes (same
// world per difficulty cell) while the combined hashes differ.
func TestDifficultySweepSpecsPairWorlds(t *testing.T) {
	points := PaperOperatingPoints()
	low, high := points[0], points[len(points)-1]
	diffs := []float64{0, 0.5, 1}

	baseLow := mustSpec(t, "package_delivery", WithSeed(9), WithScenario("urban-dense"),
		WithOperatingPoint(low.Cores, low.FreqGHz))
	baseHigh := mustSpec(t, "package_delivery", WithSeed(9), WithScenario("urban-dense"),
		WithOperatingPoint(high.Cores, high.FreqGHz))
	sweepLow := DifficultySweepSpecs(baseLow, diffs)
	sweepHigh := DifficultySweepSpecs(baseHigh, diffs)

	worldHashes := map[string]bool{}
	for i := range diffs {
		sl, sh := sweepLow[i], sweepHigh[i]
		if sl.WorldHash() != sh.WorldHash() {
			t.Errorf("difficulty %g: operating points got different worlds:\n%s\n%s",
				diffs[i], sl.WorldHash(), sh.WorldHash())
		}
		if sl.Hash() == sh.Hash() {
			t.Errorf("difficulty %g: distinct operating points share a combined hash", diffs[i])
		}
		worldHashes[sl.WorldHash()] = true
	}
	if len(worldHashes) != len(diffs) {
		t.Errorf("sweep produced %d distinct worlds for %d difficulties", len(worldHashes), len(diffs))
	}
}
