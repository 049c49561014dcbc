package env

import (
	"container/list"
	"fmt"
	"sync"

	"mavbench/internal/geom"
)

// WorldCache is a size-bounded in-process LRU of built worlds keyed by
// world-hash (the content address of a spec's world-affecting fields). A
// compute-axis sweep — many operating points over the same (scenario,
// difficulty, seed) — builds each world once and serves every subsequent run
// a deep Clone, so the cached original is never mutated by a simulation.
//
// All methods are safe for concurrent use. Concurrent misses on one key are
// single-flight: the first caller builds the world, the others wait for that
// build and receive clones of it.
type WorldCache struct {
	maxBytes int64

	mu     sync.Mutex
	byKey  map[string]*list.Element
	lru    *list.List // of *worldEntry; front = most recent
	total  int64
	hits   int64
	misses int64
	evicts int64

	// inflight holds the keys whose world is being built (guarded by mu).
	inflight map[string]*worldBuild
}

// worldEntry is one cached world and its start position.
type worldEntry struct {
	key   string
	world *World
	start geom.Vec3
	size  int64
}

// worldBuild is one build in flight. Callers that miss the same key while
// it runs wait on done, then read the outcome.
type worldBuild struct {
	done  chan struct{} // closed once the fields below are final
	world *World        // the pristine built world; nil when err is set
	start geom.Vec3
	err   error
}

// WorldCacheStats is a point-in-time snapshot of cache effectiveness.
type WorldCacheStats struct {
	Hits      int64 // lookups served from memory or a build in flight
	Misses    int64 // lookups that had to build the world
	Evictions int64 // entries dropped by the LRU size bound
	Entries   int   // worlds currently held in memory
	SizeBytes int64 // estimated in-memory footprint
}

// WorldCacheOption configures a WorldCache.
type WorldCacheOption func(*WorldCache)

// WithCacheMaxBytes bounds the cache's estimated in-memory footprint; least
// recently used worlds are evicted past it (the most recent entry is always
// kept). n <= 0 means unbounded.
func WithCacheMaxBytes(n int64) WorldCacheOption {
	return func(c *WorldCache) { c.maxBytes = n }
}

// NewWorldCache constructs an empty cache.
func NewWorldCache(opts ...WorldCacheOption) *WorldCache {
	c := &WorldCache{byKey: map[string]*list.Element{}, inflight: map[string]*worldBuild{}, lru: list.New()}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// GetOrBuild returns a private deep clone of the world for key, building (and
// caching) it with build on a miss. Every caller gets its own clone —
// simulations mutate worlds freely without poisoning the cache. Callers that
// miss a key while its build is in flight wait for that build instead of
// starting another. Build errors reach the building caller and every waiter
// verbatim and cache nothing.
func (c *WorldCache) GetOrBuild(key string, build func() (*World, geom.Vec3, error)) (*World, geom.Vec3, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*worldEntry)
		w, start := e.world.Clone(), e.start
		c.mu.Unlock()
		return w, start, nil
	}
	b, waiting := c.inflight[key]
	if waiting {
		c.hits++
	} else {
		b = &worldBuild{done: make(chan struct{})}
		c.inflight[key] = b
	}
	c.mu.Unlock()

	if !waiting {
		c.fill(key, b, build)
	}
	<-b.done
	if b.err != nil {
		return nil, geom.Vec3{}, b.err
	}
	// The original stays in the cache pristine; the building caller gets a
	// clone too, so no caller can ever mutate the cached copy.
	return b.world.Clone(), b.start, nil
}

// fill runs the build in flight for key, caches the outcome, and releases
// the waiters. A panicking build still releases them, with an error.
func (c *WorldCache) fill(key string, b *worldBuild, build func() (*World, geom.Vec3, error)) {
	defer func() {
		if b.world == nil && b.err == nil {
			b.err = fmt.Errorf("env: building world %s panicked", key)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(b.done)
	}()
	w, start, err := build()
	if err != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		b.err = err
		return
	}
	c.insert(key, w, start)
	b.world, b.start = w, start
}

// Contains reports whether key is resident in the cache (no recency update;
// for tests).
func (c *WorldCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Stats returns a snapshot of the cache counters.
func (c *WorldCache) Stats() WorldCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WorldCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicts,
		Entries: c.lru.Len(), SizeBytes: c.total,
	}
}

// insert counts a miss, stores a pristine world under key and enforces the
// size bound.
func (c *WorldCache) insert(key string, w *World, start geom.Vec3) {
	size := worldFootprint(w)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if el, ok := c.byKey[key]; ok {
		// Already resident: keep the incumbent (identical content).
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&worldEntry{key: key, world: w, start: start, size: size})
	c.total += size
	if c.maxBytes <= 0 {
		return
	}
	for c.total > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*worldEntry)
		c.total -= e.size
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.evicts++
	}
}

// worldFootprint estimates a cached world's memory cost in bytes. It only
// needs to be proportional — the LRU bound is a budget, not an accounting.
func worldFootprint(w *World) int64 {
	const worldBase, perObstacle = 512, 176
	return worldBase + perObstacle*int64(len(w.obstacles))
}
