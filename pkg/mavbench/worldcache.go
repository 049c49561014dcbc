package mavbench

import (
	"sync"

	"mavbench/internal/env"
)

// WorldCache caches built worlds keyed by Spec.WorldHash, so a compute-axis
// sweep — many operating points over the same (scenario, difficulty, seed) —
// constructs each world once and serves every subsequent run a deep clone.
// Results are bit-identical with or without the cache: a clone reproduces
// obstacle, patrol and RNG state exactly (pinned by tests).
//
// The cache is a size-bounded in-process LRU. Construct with NewWorldCache,
// or use the process-wide DefaultWorldCache that campaigns pick up
// automatically. Safe for concurrent use; runs that miss a world while
// another run is building it wait for that one build.
type WorldCache struct {
	c *env.WorldCache
}

// WorldCacheStats is a point-in-time snapshot of cache effectiveness.
type WorldCacheStats struct {
	// Hits counts lookups served without building (from memory, or from
	// another run's build of the same world).
	Hits int64 `json:"hits"`
	// Misses counts lookups that built the world.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU size bound.
	Evictions int64 `json:"evictions"`
	// Entries is the number of worlds resident in memory.
	Entries int `json:"entries"`
	// SizeBytes is the estimated in-memory footprint.
	SizeBytes int64 `json:"size_bytes"`
}

// WorldCacheOption configures a WorldCache under construction.
type WorldCacheOption func(*worldCacheConfig)

type worldCacheConfig struct {
	maxBytes int64
}

// WithWorldCacheMaxBytes bounds the cache's estimated in-memory footprint
// (least-recently-used worlds evict past it; the most recent entry is always
// kept). n <= 0 means unbounded.
func WithWorldCacheMaxBytes(n int64) WorldCacheOption {
	return func(c *worldCacheConfig) { c.maxBytes = n }
}

// DefaultWorldCacheBytes is the in-memory bound of the process-wide default
// cache. Worlds are hundreds of bytes to a few hundred KiB each, so the
// default holds thousands of distinct worlds.
const DefaultWorldCacheBytes int64 = 256 << 20

// NewWorldCache constructs a world cache. With no options it is bounded at
// DefaultWorldCacheBytes.
func NewWorldCache(opts ...WorldCacheOption) *WorldCache {
	cfg := worldCacheConfig{maxBytes: DefaultWorldCacheBytes}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &WorldCache{c: env.NewWorldCache(env.WithCacheMaxBytes(cfg.maxBytes))}
}

// Stats returns a snapshot of the cache counters.
func (wc *WorldCache) Stats() WorldCacheStats {
	st := wc.c.Stats()
	return WorldCacheStats{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Entries: st.Entries, SizeBytes: st.SizeBytes,
	}
}

// engine returns the internal cache (nil-safe).
func (wc *WorldCache) engine() *env.WorldCache {
	if wc == nil {
		return nil
	}
	return wc.c
}

var (
	defaultWorldCacheOnce sync.Once
	defaultWorldCache     *WorldCache
)

// DefaultWorldCache returns the process-wide world cache every Campaign (and
// therefore every mavbenchd campaign and fleet worker batch) uses unless
// overridden with Campaign.SetWorldCache. Sharing one cache across campaigns
// is what lets fleet workers reuse worlds across batches.
func DefaultWorldCache() *WorldCache {
	defaultWorldCacheOnce.Do(func() {
		defaultWorldCache = NewWorldCache()
	})
	return defaultWorldCache
}
