package env

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mavbench/internal/geom"
)

// buildTestWorld makes a world with consumed RNG state, static and dynamic
// obstacles, and some elapsed time — every axis Clone must reproduce.
func buildTestWorld(seed int64) *World {
	w, err := BuildFamilyWorld("urban", seed, 0.5, DefaultKnobs())
	if err != nil {
		panic(err)
	}
	// Consume extra RNG draws so the clone has real state to replay.
	for i := 0; i < 17; i++ {
		w.SamplePoint()
	}
	w.Step(3.7)
	return w
}

// worldFingerprint captures everything observable about a world.
func worldFingerprint(w *World) []any {
	var obs []Obstacle
	for _, o := range w.Obstacles() {
		obs = append(obs, *o)
	}
	return []any{w.Name, w.Bounds, w.GroundZ, w.Elapsed(), w.Seed(), obs}
}

func TestCloneIsBitIdentical(t *testing.T) {
	orig := buildTestWorld(99)
	clone := orig.Clone()

	if !reflect.DeepEqual(worldFingerprint(orig), worldFingerprint(clone)) {
		t.Fatal("clone differs from original immediately after cloning")
	}
	// Future behaviour must match too: same RNG stream, same dynamics.
	for i := 0; i < 50; i++ {
		a, b := orig.SamplePoint(), clone.SamplePoint()
		if a != b {
			t.Fatalf("RNG stream diverged at draw %d: %v vs %v", i, a, b)
		}
		orig.Step(0.25)
		clone.Step(0.25)
	}
	if !reflect.DeepEqual(worldFingerprint(orig), worldFingerprint(clone)) {
		t.Fatal("clone diverged from original after stepping")
	}
}

func TestCloneIsolation(t *testing.T) {
	orig := buildTestWorld(7)
	before := worldFingerprint(orig)
	clone := orig.Clone()
	// Mutate the clone hard; the original must not move.
	clone.Step(100)
	clone.SamplePoint()
	clone.AddObstacle(KindStructure, geom.NewAABB(geom.V3(0, 0, 0), geom.V3(1, 1, 1)), "intruder")
	if !reflect.DeepEqual(before, worldFingerprint(orig)) {
		t.Fatal("mutating a clone changed the original")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := buildTestWorld(1234)
	buf, err := orig.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(worldFingerprint(orig), worldFingerprint(restored)) {
		t.Fatal("snapshot round-trip changed the world")
	}
	for i := 0; i < 25; i++ {
		if a, b := orig.SamplePoint(), restored.SamplePoint(); a != b {
			t.Fatalf("restored RNG stream diverged at draw %d", i)
		}
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("{not json")); err == nil {
		t.Fatal("corrupt snapshot decoded without error")
	}
}

func TestWorldCacheHitsAndClones(t *testing.T) {
	c := NewWorldCache()
	builds := 0
	build := func() (*World, geom.Vec3, error) {
		builds++
		return buildTestWorld(5), geom.V3(1, 2, 0), nil
	}
	w1, start, err := c.GetOrBuild("aa11", build)
	if err != nil {
		t.Fatal(err)
	}
	if start != geom.V3(1, 2, 0) {
		t.Fatalf("start = %v", start)
	}
	w2, _, err := c.GetOrBuild("aa11", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if w1 == w2 {
		t.Fatal("cache handed out the same world twice (must clone)")
	}
	// The two clones must behave identically but independently.
	if a, b := w1.SamplePoint(), w2.SamplePoint(); a != b {
		t.Fatalf("clones diverge: %v vs %v", a, b)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWorldCacheBuildError(t *testing.T) {
	c := NewWorldCache()
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("bb22", func() (*World, geom.Vec3, error) {
		return nil, geom.Vec3{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("error cached something: %+v", st)
	}
}

// missConcurrently starts one GetOrBuild of key whose build is held open,
// lets n more callers miss the same key, then releases the build. It
// returns every caller's world and error (index 0 is the first caller) and
// how many times build ran.
func missConcurrently(c *WorldCache, key string, n int, build func() (*World, geom.Vec3, error)) ([]*World, []error, int32) {
	release, held := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	hold := func() (*World, geom.Vec3, error) {
		if builds.Add(1) == 1 {
			close(held)
			<-release
		}
		return build()
	}
	worlds, errs := make([]*World, n+1), make([]error, n+1)
	var wg sync.WaitGroup
	for i := range worlds {
		if i == 1 {
			<-held
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worlds[i], _, errs[i] = c.GetOrBuild(key, hold)
		}(i)
	}
	// Each caller that joins the held build counts a hit. Wait for all of
	// them, but only up to a deadline: a cache that builds once per caller
	// never counts those hits, and must fail the caller's checks, not hang.
	for deadline := time.Now().Add(2 * time.Second); c.Stats().Hits < int64(n) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	return worlds, errs, builds.Load()
}

// TestWorldCacheSingleFlight misses one key from several goroutines while
// the first build is held open: the world must be built once, and every
// caller must get its own clone of that one build.
func TestWorldCacheSingleFlight(t *testing.T) {
	const waiters = 4
	c := NewWorldCache()
	worlds, errs, builds := missConcurrently(c, "cc33", waiters, func() (*World, geom.Vec3, error) {
		return buildTestWorld(5), geom.V3(1, 2, 0), nil
	})
	if builds != 1 {
		t.Fatalf("concurrent misses built the world %d times, want 1", builds)
	}
	want := worldFingerprint(buildTestWorld(5))
	for i, w := range worlds {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for j := 0; j < i; j++ {
			if worlds[j] == w {
				t.Fatalf("callers %d and %d share one world (each must get a clone)", j, i)
			}
		}
		if got := worldFingerprint(w); !reflect.DeepEqual(got, want) {
			t.Errorf("caller %d got a world that differs from the build", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != waiters || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry", st, waiters)
	}
}

// TestWorldCacheSingleFlightError fails a build that other callers are
// waiting on: every one of them gets the error, nothing is cached, and the
// next lookup builds afresh.
func TestWorldCacheSingleFlightError(t *testing.T) {
	const waiters = 3
	c := NewWorldCache()
	boom := errors.New("boom")
	_, errs, builds := missConcurrently(c, "dd44", waiters, func() (*World, geom.Vec3, error) {
		return nil, geom.Vec3{}, boom
	})
	if builds != 1 {
		t.Fatalf("concurrent misses ran the build %d times, want 1", builds)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: err = %v, want boom", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("failed build cached something: %+v", st)
	}
	if _, _, err := c.GetOrBuild("dd44", func() (*World, geom.Vec3, error) {
		return buildTestWorld(6), geom.Vec3{}, nil
	}); err != nil || !c.Contains("dd44") {
		t.Fatalf("rebuild after a failed build: err = %v, cached = %v", err, c.Contains("dd44"))
	}
}

func TestWorldCacheLRUEviction(t *testing.T) {
	// Footprint per entry is worldBase + n*perObstacle; bound the cache so
	// only two small worlds fit.
	mk := func(seed int64) func() (*World, geom.Vec3, error) {
		return func() (*World, geom.Vec3, error) {
			w := New("tiny", geom.NewAABB(geom.V3(0, 0, 0), geom.V3(10, 10, 10)), seed)
			return w, geom.Vec3{}, nil
		}
	}
	c := NewWorldCache(WithCacheMaxBytes(2 * 512))
	if _, _, err := c.GetOrBuild("01", mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("02", mk(2)); err != nil {
		t.Fatal(err)
	}
	// Touch 01 so 02 is the LRU victim.
	if _, _, err := c.GetOrBuild("01", mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("03", mk(3)); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("01") || c.Contains("02") || !c.Contains("03") {
		t.Fatalf("eviction picked the wrong victim: 01=%t 02=%t 03=%t",
			c.Contains("01"), c.Contains("02"), c.Contains("03"))
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestWorldCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c1 := NewWorldCache(WithCacheDir(dir))
	builds := 0
	build := func() (*World, geom.Vec3, error) {
		builds++
		return buildTestWorld(11), geom.V3(4, 4, 0), nil
	}
	w1, _, err := c1.GetOrBuild("cafe01", build)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.SpillWrites != 1 {
		t.Fatalf("spill writes = %d, want 1", st.SpillWrites)
	}

	// A second cache over the same directory (fresh process) must serve the
	// world from the spill tier without building.
	c2 := NewWorldCache(WithCacheDir(dir))
	w2, start, err := c2.GetOrBuild("cafe01", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (spill tier missed)", builds)
	}
	if start != geom.V3(4, 4, 0) {
		t.Fatalf("spilled start = %v", start)
	}
	if st := c2.Stats(); st.SpillHits != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !reflect.DeepEqual(worldFingerprint(w1), worldFingerprint(w2)) {
		t.Fatal("spilled world differs from built world")
	}
	for i := 0; i < 25; i++ {
		if a, b := w1.SamplePoint(), w2.SamplePoint(); a != b {
			t.Fatalf("spilled world RNG stream diverged at draw %d", i)
		}
	}
}

func TestWorldCacheCorruptSpillIsMiss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dead01.json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewWorldCache(WithCacheDir(dir))
	builds := 0
	_, _, err := c.GetOrBuild("dead01", func() (*World, geom.Vec3, error) {
		builds++
		return buildTestWorld(3), geom.Vec3{}, nil
	})
	if err != nil || builds != 1 {
		t.Fatalf("corrupt spill not tolerated: err=%v builds=%d", err, builds)
	}
	// The corrupt file must have been replaced by a good snapshot.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:1]) != "{" || len(buf) < 100 {
		t.Fatalf("spill file not rewritten: %q...", buf[:min(20, len(buf))])
	}
	c2 := NewWorldCache(WithCacheDir(dir))
	if _, _, err := c2.GetOrBuild("dead01", func() (*World, geom.Vec3, error) {
		t.Fatal("rewritten spill entry not used")
		return nil, geom.Vec3{}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldCacheRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	c := NewWorldCache(WithCacheDir(dir))
	if _, _, err := c.GetOrBuild("../escape", func() (*World, geom.Vec3, error) {
		return buildTestWorld(1), geom.Vec3{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "escape.json" {
			t.Fatal("hostile key escaped the spill directory")
		}
	}
}
