package octomap

import (
	"math/bits"
	"sync"
)

// Chunked dense storage. Voxels are grouped into 16x16x16 chunks keyed by
// chunk coordinate; log-odds live in a flat per-chunk array with a "known"
// bitmap distinguishing observed voxels from the zero value. Compared to the
// seed's one-hash-map-entry-per-voxel layout this turns the ray-carving hot
// path into array writes (one map lookup per chunk transition instead of one
// per voxel, served by a single-entry chunk cache) while keeping the octree's
// sparse behaviour at chunk granularity: only chunks that have been observed
// consume memory.
const (
	chunkBits   = 4
	chunkEdge   = 1 << chunkBits                    // voxels per chunk edge
	chunkMask   = chunkEdge - 1                     // local-coordinate mask
	chunkVoxels = chunkEdge * chunkEdge * chunkEdge // voxels per chunk
	chunkWords  = chunkVoxels / 64                  // known-bitmap words per chunk
)

// chunkKey is a chunk coordinate (voxel coordinate >> chunkBits).
type chunkKey struct{ X, Y, Z int32 }

// chunk is one 16^3-voxel block: flat log-odds plus a known bitmap. An unset
// known bit means the voxel is Unknown and its logOdds entry is the zero
// value — exactly the implicit 0.0 a missing hash-map entry used to read, so
// update arithmetic is bit-identical to the seed layout.
type chunk struct {
	logOdds [chunkVoxels]float64
	known   [chunkWords]uint64
	count   int32 // known voxels in this chunk
	occ     int32 // known voxels with logOdds above the occupied threshold
	// occBits has a voxel's bit set exactly when its logOdds is above the
	// occupied threshold (an unknown voxel's 0.0 is not); the collision
	// query enumerates it.
	occBits [chunkWords]uint64
}

// chunkPool recycles chunk blocks across maps. Campaigns create and drop a
// fresh ~500-chunk map per run; without recycling, chunk blocks were ~75% of
// all allocation (and the dominant GC driver) in a golden-campaign profile.
// Chunks enter the pool only through Map.Release, whose caller vouches that
// nothing references the map anymore.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// newChunk returns a zeroed chunk, recycled when one is pooled. Clear-on-get:
// the explicit zeroing makes a recycled block indistinguishable from a fresh
// allocation, so map contents never depend on pool history.
func newChunk() *chunk {
	c := chunkPool.Get().(*chunk)
	*c = chunk{}
	return c
}

// Release returns every chunk to the shared pool and empties the map. Callers
// must guarantee the map — and any alias of its chunks — is no longer used:
// a released chunk may be handed to an unrelated map at any moment. It is the
// run-teardown counterpart of New; a released map is empty but still valid.
func (m *Map) Release() {
	if m == nil {
		return
	}
	for ck, c := range m.chunks {
		chunkPool.Put(c)
		delete(m.chunks, ck)
	}
	for i := range m.grid {
		m.grid[i] = nil
	}
	m.cacheChunk, m.cacheValid = nil, false
	m.leafCount = 0
	m.memoValid = false
	m.version++
}

// chunkOf splits a voxel key into its chunk coordinate and the voxel's flat
// index within that chunk. Arithmetic shift and two's-complement masking keep
// this correct for negative voxel coordinates.
func chunkOf(k voxelKey) (chunkKey, int) {
	ck := chunkKey{k.X >> chunkBits, k.Y >> chunkBits, k.Z >> chunkBits}
	li := int(k.X&chunkMask) | int(k.Y&chunkMask)<<chunkBits | int(k.Z&chunkMask)<<(2*chunkBits)
	return ck, li
}

// voxelOf is the inverse of chunkOf.
func voxelOf(ck chunkKey, li int) voxelKey {
	return voxelKey{
		X: ck.X<<chunkBits + int32(li&chunkMask),
		Y: ck.Y<<chunkBits + int32((li>>chunkBits)&chunkMask),
		Z: ck.Z<<chunkBits + int32(li>>(2*chunkBits)),
	}
}

func (c *chunk) isKnown(li int) bool {
	return c.known[li>>6]&(1<<uint(li&63)) != 0
}

// flipOccupied toggles the voxel's occupied bit; callers flip it exactly
// when its logOdds crosses the occupied threshold.
func (c *chunk) flipOccupied(li int) {
	c.occBits[li>>6] ^= 1 << uint(li&63)
}

// markKnown sets the voxel's known bit, reporting whether it was newly set.
func (c *chunk) markKnown(li int) bool {
	w, b := li>>6, uint64(1)<<uint(li&63)
	if c.known[w]&b != 0 {
		return false
	}
	c.known[w] |= b
	c.count++
	return true
}

// chunkAt returns the chunk holding ck, or nil if none exists. In-bounds
// coordinates resolve through the dense chunk directory (array indexing);
// out-of-grid coordinates fall back to the hash map behind a single-entry
// cache that also remembers misses — voxel lookups in unobserved space probe
// the same absent chunk many times in a row.
func (m *Map) chunkAt(ck chunkKey) *chunk {
	if gi, ok := m.gridIndex(ck); ok {
		return m.grid[gi]
	}
	if m.cacheValid && m.cacheKey == ck {
		return m.cacheChunk
	}
	c := m.chunks[ck]
	m.cacheKey, m.cacheChunk, m.cacheValid = ck, c, true
	return c
}

// chunkCreate returns the chunk holding ck, allocating it if needed. New
// chunks are always registered in the hash map (the authoritative directory)
// and additionally in the dense grid when in range.
func (m *Map) chunkCreate(ck chunkKey) *chunk {
	if gi, ok := m.gridIndex(ck); ok {
		if c := m.grid[gi]; c != nil {
			return c
		}
		c := newChunk()
		m.grid[gi] = c
		m.chunks[ck] = c
		return c
	}
	if m.cacheValid && m.cacheKey == ck && m.cacheChunk != nil {
		return m.cacheChunk
	}
	c := m.chunks[ck]
	if c == nil {
		c = newChunk()
		m.chunks[ck] = c
	}
	m.cacheKey, m.cacheChunk, m.cacheValid = ck, c, true
	return c
}

// logOddsAt returns the voxel's log-odds and whether it has been observed.
func (m *Map) logOddsAt(k voxelKey) (float64, bool) {
	ck, li := chunkOf(k)
	c := m.chunkAt(ck)
	if c == nil || !c.isKnown(li) {
		return 0, false
	}
	return c.logOdds[li], true
}

// setLogOdds stores a log-odds value directly (Rebuild's re-quantisation).
func (m *Map) setLogOdds(k voxelKey, v float64) {
	ck, li := chunkOf(k)
	c := m.chunkCreate(ck)
	// An unknown voxel's slot reads 0.0 (not occupied), so the occupancy
	// transition test below is correct whether or not the voxel was known.
	if (v > occupiedLogOdds) != (c.logOdds[li] > occupiedLogOdds) {
		if v > occupiedLogOdds {
			c.occ++
		} else {
			c.occ--
		}
		c.flipOccupied(li)
	}
	c.logOdds[li] = v
	if c.markKnown(li) {
		m.leafCount++
	}
	m.version++
}

// forEachLeaf visits every observed voxel. Iteration order is unspecified
// (chunks come from a hash map); callers needing determinism sort keys.
func (m *Map) forEachLeaf(fn func(k voxelKey, lo float64)) {
	for ck, c := range m.chunks {
		for w, word := range c.known {
			for word != 0 {
				li := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				fn(voxelOf(ck, li), c.logOdds[li])
			}
		}
	}
}
