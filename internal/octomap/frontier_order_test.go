package octomap

import (
	"math/rand"
	"sort"
	"testing"

	"mavbench/internal/geom"
)

// frontierCellsReference is the pre-rewrite FrontierCells: materialise every
// leaf, sort, walk in key order. The ordered chunk traversal must reproduce
// its output bit for bit, including the early exit at limit.
func frontierCellsReference(m *Map, limit int) []geom.Vec3 {
	type leafEntry struct {
		key voxelKey
		lo  float64
	}
	var leaves []leafEntry
	m.forEachLeaf(func(k voxelKey, lo float64) {
		leaves = append(leaves, leafEntry{k, lo})
	})
	sort.Slice(leaves, func(i, j int) bool {
		a, b := leaves[i].key, leaves[j].key
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	neighbours := [6]voxelKey{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	var out []geom.Vec3
	for _, leaf := range leaves {
		k := leaf.key
		if leaf.lo > occupiedLogOdds {
			continue
		}
		frontier := false
		for _, d := range neighbours {
			nk := voxelKey{k.X + d.X, k.Y + d.Y, k.Z + d.Z}
			if _, known := m.logOddsAt(nk); !known {
				if m.bounds.Contains(m.center(nk)) {
					frontier = true
					break
				}
			}
		}
		if frontier {
			out = append(out, m.center(k))
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

// TestFrontierCellsMatchesSortedLeafReference drives randomized scans through
// maps spanning multiple chunks (including negative coordinates) and checks
// the ordered chunk traversal against the sort-every-leaf reference for a
// range of limits.
func TestFrontierCellsMatchesSortedLeafReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	bounds := geom.NewAABB(geom.V3(-12, -12, -4), geom.V3(12, 12, 8))
	for trial := 0; trial < 8; trial++ {
		m := New(0.25, bounds)
		origin := geom.V3(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*4)
		for i := 0; i < 60; i++ {
			end := geom.V3(
				rng.Float64()*24-12,
				rng.Float64()*24-12,
				rng.Float64()*12-4,
			)
			m.InsertRay(origin, end, 18)
		}
		var got []geom.Vec3 // reused across limits, as SelectFrontier reuses its buffer
		for _, limit := range []int{0, 1, 5, 50, 1 << 20} {
			got = m.FrontierCells(got[:0], limit)
			want := frontierCellsReference(m, limit)
			if len(got) != len(want) {
				t.Fatalf("trial %d limit %d: %d cells, want %d", trial, limit, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d limit %d: cell %d = %v, want %v", trial, limit, i, got[i], want[i])
				}
			}
		}
	}
}
