package octomap

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"mavbench/internal/geom"
)

// clampedProbability returns the occupancy probability of a log-odds value.
func prob(lo float64) float64 { return 1 - 1/(1+math.Exp(lo)) }

// TestInsertRayEndpointNeverFreeProperty: inserting an untruncated ray into a
// fresh map always leaves the endpoint voxel Occupied — free-space carving
// along the ray must never win over the endpoint hit, even when the last
// carve sample lands in the endpoint's voxel (one miss + one hit is still
// positive log-odds).
func TestInsertRayEndpointNeverFreeProperty(t *testing.T) {
	f := func(ox, oy, oz, ex, ey, ez float64, resSel uint8) bool {
		res := []float64{0.15, 0.25, 0.5, 0.8}[resSel%4]
		m := New(res, testBounds())
		origin := geom.V3(math.Mod(ox, 45), math.Mod(oy, 45), math.Abs(math.Mod(oz, 28))+0.5)
		end := geom.V3(math.Mod(ex, 45), math.Mod(ey, 45), math.Abs(math.Mod(ez, 28))+0.5)
		if !origin.IsFinite() || !end.IsFinite() || origin.Dist(end) == 0 {
			return true
		}
		m.InsertRay(origin, end, 0) // maxRange 0: never truncated
		return m.At(end) == Occupied
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAtAgreesWithOccupancyProbability: after arbitrary observation
// sequences, the classification and the probability must tell the same
// story at every probed point.
func TestAtAgreesWithOccupancyProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New(0.3, testBounds())
	pt := func() geom.Vec3 {
		return geom.V3(rng.Float64()*80-40, rng.Float64()*80-40, rng.Float64()*25)
	}
	for i := 0; i < 5000; i++ {
		p := pt()
		if rng.Intn(2) == 0 {
			m.MarkOccupied(p)
		} else {
			m.MarkFree(p)
		}
	}
	for i := 0; i < 5000; i++ {
		p := pt()
		pr := m.OccupancyProbability(p)
		switch m.At(p) {
		case Unknown:
			if pr != 0.5 {
				t.Fatalf("unknown voxel at %v has probability %v", p, pr)
			}
		case Occupied:
			if pr <= 0.5 {
				t.Fatalf("occupied voxel at %v has probability %v", p, pr)
			}
			if pr > prob(logOddsMax) {
				t.Fatalf("probability %v exceeds the clamp ceiling %v", pr, prob(logOddsMax))
			}
		case Free:
			if pr > 0.5 {
				t.Fatalf("free voxel at %v has probability %v", p, pr)
			}
			if pr < prob(logOddsMin) {
				t.Fatalf("probability %v below the clamp floor %v", pr, prob(logOddsMin))
			}
		}
	}
}

// TestMarkFreeAfterMarkOccupiedRoundTripsThroughClamp: saturating a voxel
// occupied clamps its log-odds at logOddsMax, so a bounded number of misses
// (ceil(logOddsMax/|logOddsMiss|) = 9) must flip it to Free no matter how
// many hits preceded them — and the same holds mirrored through the floor
// clamp. This is the recoverability guarantee the clamping exists for.
func TestMarkFreeAfterMarkOccupiedRoundTripsThroughClamp(t *testing.T) {
	p := geom.V3(1, 2, 3)
	missesToClear := int(math.Ceil(logOddsMax/-logOddsMiss)) + 1 // 9 + margin for the strict > threshold
	hitsToOccupy := int(math.Ceil(-logOddsMin/logOddsHit)) + 1

	for _, hits := range []int{1, 5, 100, 10000} {
		m := New(0.2, testBounds())
		for i := 0; i < hits; i++ {
			m.MarkOccupied(p)
		}
		if !m.IsOccupied(p) {
			t.Fatalf("voxel not occupied after %d hits", hits)
		}
		for i := 0; i < missesToClear; i++ {
			m.MarkFree(p)
		}
		if !m.IsFree(p) {
			t.Fatalf("voxel not cleared by %d misses after %d hits (clamp broken)", missesToClear, hits)
		}
		// Mirror: saturate free, then re-occupy with a bounded hit count.
		for i := 0; i < 10000; i++ {
			m.MarkFree(p)
		}
		for i := 0; i < hitsToOccupy; i++ {
			m.MarkOccupied(p)
		}
		if !m.IsOccupied(p) {
			t.Fatalf("voxel not re-occupied by %d hits after saturating free", hitsToOccupy)
		}
	}
}

// TestChunkedStorageMatchesHashMapModel is model-based: a reference
// hash-map-of-voxels (the seed's layout) receives exactly the same update
// stream as the chunked map, and every voxel classification, probability,
// leaf count and frontier enumeration must agree.
func TestChunkedStorageMatchesHashMapModel(t *testing.T) {
	model := map[voxelKey]float64{}
	m := New(0.25, testBounds())
	modelUpdate := func(k voxelKey, delta float64) {
		v := model[k] + delta
		if v > logOddsMax {
			v = logOddsMax
		}
		if v < logOddsMin {
			v = logOddsMin
		}
		model[k] = v
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		p := geom.V3(rng.Float64()*60-30, rng.Float64()*60-30, rng.Float64()*20)
		if rng.Intn(3) == 0 {
			m.MarkOccupied(p)
			modelUpdate(m.key(p), logOddsHit)
		} else {
			m.MarkFree(p)
			modelUpdate(m.key(p), logOddsMiss)
		}
	}

	if m.LeafCount() != len(model) {
		t.Fatalf("LeafCount = %d, model has %d", m.LeafCount(), len(model))
	}
	checked := 0
	m.forEachLeaf(func(k voxelKey, lo float64) {
		want, ok := model[k]
		if !ok {
			t.Fatalf("chunked map has leaf %v the model lacks", k)
		}
		if lo != want {
			t.Fatalf("leaf %v log-odds %v != model %v", k, lo, want)
		}
		checked++
	})
	if checked != len(model) {
		t.Fatalf("forEachLeaf visited %d leaves, model has %d", checked, len(model))
	}
	// The occupied bitmap the collision query enumerates mirrors the
	// log-odds of every voxel, known or not, and the occupied count.
	for ck, c := range m.chunks {
		occ := 0
		for li := range c.logOdds {
			if set := c.occBits[li>>6]&(1<<uint(li&63)) != 0; set != (c.logOdds[li] > occupiedLogOdds) {
				t.Fatalf("chunk %v voxel %d: occupied bit %v, log-odds %v", ck, li, set, c.logOdds[li])
			}
		}
		for _, w := range c.occBits {
			occ += bits.OnesCount64(w)
		}
		if occ != int(c.occ) {
			t.Fatalf("chunk %v: %d occupied bits, occ count %d", ck, occ, c.occ)
		}
	}
	st := m.Stats()
	if st.Leaves != len(model) {
		t.Fatalf("Stats.Leaves = %d, want %d", st.Leaves, len(model))
	}
}

// TestMemoryBytesReflectsChunkStorage: the footprint must scale with
// allocated chunks (not observed voxels), count partially filled chunks in
// full, and reset with Clear.
func TestMemoryBytesReflectsChunkStorage(t *testing.T) {
	m := New(0.25, testBounds())
	if m.MemoryBytes() != 0 {
		t.Fatalf("fresh map reports %d bytes", m.MemoryBytes())
	}
	m.MarkOccupied(geom.V3(0.1, 0.1, 0.1))
	if m.ChunkCount() != 1 {
		t.Fatalf("one voxel allocated %d chunks", m.ChunkCount())
	}
	one := m.MemoryBytes()
	if one < chunkVoxels*8 {
		t.Fatalf("single chunk reports %d bytes, less than its %d-byte log-odds array", one, chunkVoxels*8)
	}
	// A second voxel in the same chunk must not grow the footprint...
	m.MarkOccupied(geom.V3(0.4, 0.1, 0.1))
	if m.MemoryBytes() != one {
		t.Fatalf("same-chunk voxel changed footprint %d -> %d", one, m.MemoryBytes())
	}
	// ...while a far-away voxel allocates a new chunk.
	m.MarkOccupied(geom.V3(30, 30, 20))
	if m.MemoryBytes() != 2*one {
		t.Fatalf("two chunks report %d bytes, want %d", m.MemoryBytes(), 2*one)
	}
	if m.MemoryBytes() != m.Stats().MemoryBytes {
		t.Fatal("Stats.MemoryBytes disagrees with MemoryBytes")
	}
	m.Clear()
	if m.MemoryBytes() != 0 || m.ChunkCount() != 0 {
		t.Fatal("Clear did not release storage")
	}
}

// FuzzInsertRay fuzzes ray insertion: arbitrary origins, endpoints, ranges
// and resolutions must never panic, never mark the endpoint of an
// untruncated in-bounds ray free, and keep the leaf count consistent with
// the stats scan.
func FuzzInsertRay(f *testing.F) {
	f.Add(0.0, 0.0, 5.0, 10.0, 0.0, 5.0, 0.0, 0.2)
	f.Add(-20.0, 3.0, 1.0, 40.0, -3.0, 29.0, 15.0, 0.8)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.15) // zero-length
	f.Fuzz(func(t *testing.T, ox, oy, oz, ex, ey, ez, maxRange, res float64) {
		if !(res > 0.01 && res < 2) || maxRange < 0 || maxRange > 1e6 {
			t.Skip()
		}
		for _, v := range []float64{ox, oy, oz, ex, ey, ez} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		m := New(res, testBounds())
		origin := geom.V3(ox, oy, oz)
		end := geom.V3(ex, ey, ez)
		m.InsertRay(origin, end, maxRange)

		dist := origin.Dist(end)
		truncated := maxRange > 0 && dist > maxRange
		if dist > 0 && !truncated && m.bounds.Contains(end) && m.At(end) != Occupied {
			t.Fatalf("untruncated in-bounds ray endpoint %v is %v, want occupied", end, m.At(end))
		}
		if st := m.Stats(); st.Leaves != m.LeafCount() || st.Occupied+st.Free != st.Leaves {
			t.Fatalf("inconsistent stats %+v vs LeafCount %d", st, m.LeafCount())
		}
	})
}

// FuzzLogOddsUpdateSequence replays an arbitrary hit/miss sequence on one
// voxel and checks the classification against an independently computed
// clamped log-odds model.
func FuzzLogOddsUpdateSequence(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		m := New(0.2, testBounds())
		p := geom.V3(0.1, 0.1, 0.1)
		lo := 0.0
		touched := false
		for _, op := range ops {
			delta := logOddsMiss
			if op%2 == 1 {
				delta = logOddsHit
				m.MarkOccupied(p)
			} else {
				m.MarkFree(p)
			}
			lo += delta
			if lo > logOddsMax {
				lo = logOddsMax
			}
			if lo < logOddsMin {
				lo = logOddsMin
			}
			touched = true
		}
		want := Unknown
		if touched {
			want = Free
			if lo > occupiedLogOdds {
				want = Occupied
			}
		}
		if got := m.At(p); got != want {
			t.Fatalf("after %d ops At = %v, model says %v (model log-odds %v)", len(ops), got, want, lo)
		}
		if touched {
			if got, want := m.OccupancyProbability(p), prob(lo); got != want {
				t.Fatalf("probability %v, model says %v", got, want)
			}
		}
	})
}
