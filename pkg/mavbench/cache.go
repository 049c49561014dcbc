package mavbench

import "sync"

// MemoryCache is an in-process ResultStore, optionally bounded. The zero
// value is not usable; construct it with NewMemoryCache or
// NewBoundedMemoryCache.
type MemoryCache struct {
	mu    sync.RWMutex
	m     map[string]Result
	order []string // insertion order, used for eviction when bounded
	max   int      // 0 = unbounded
}

// NewMemoryCache returns an empty, unbounded in-memory result cache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{m: map[string]Result{}}
}

// NewBoundedMemoryCache returns an in-memory result cache that evicts its
// oldest entries once it holds maxEntries results (FIFO). Long-running
// services use this so the cache cannot grow without bound.
func NewBoundedMemoryCache(maxEntries int) *MemoryCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &MemoryCache{m: map[string]Result{}, max: maxEntries}
}

// Get implements ResultStore.
func (c *MemoryCache) Get(hash string) (Result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	res, ok := c.m[hash]
	return res, ok
}

// Put implements ResultStore.
func (c *MemoryCache) Put(hash string, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[hash]; !exists {
		c.order = append(c.order, hash)
	}
	c.m[hash] = res
	for c.max > 0 && len(c.m) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
}

// Len returns the number of cached results.
func (c *MemoryCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
