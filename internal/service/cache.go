package service

import (
	"container/list"
	"sync"

	"repro/internal/telemetry"
)

// resultCache is a bounded, mutex-guarded LRU mapping canonical request
// fingerprints to encoded response bytes. Caching the bytes rather than
// the decoded estimate is what makes repeat answers bit-identical by
// construction: a hit replays exactly what the first computation wrote.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

// instrument registers the cache metric families as callbacks over the
// cache's own counters, so /metrics and /stats read the same numbers.
// Called once by Service.New before the cache serves traffic.
func (c *resultCache) instrument(reg *telemetry.Registry) {
	reg.CounterFunc("ltsimd_cache_hits_total", "Result cache lookups that replayed stored bytes.",
		func() uint64 { return c.Stats().Hits })
	reg.CounterFunc("ltsimd_cache_misses_total", "Result cache lookups that found nothing.",
		func() uint64 { return c.Stats().Misses })
	reg.CounterFunc("ltsimd_cache_evictions_total", "Entries evicted by the LRU bound.",
		func() uint64 { return c.Stats().Evictions })
	reg.GaugeFunc("ltsimd_cache_entries", "Result cache size in entries.", func() float64 {
		return float64(c.Len())
	})
	reg.GaugeFunc("ltsimd_cache_capacity", "Result cache capacity in entries.", func() float64 {
		return float64(c.cap)
	})
}

// Len returns the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

type cacheEntry struct {
	key string
	val []byte
}

// newResultCache returns an LRU bounded to capacity entries (>= 1).
func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached bytes for key, counting a hit or miss.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least recently used entry when
// over capacity. Callers must not mutate val afterwards.
func (c *resultCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// CacheStats is a point-in-time cache snapshot. Evictions is additive
// (PR 7); the earlier fields keep their names and positions.
type CacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Evictions uint64  `json:"evictions"`
}

// Stats snapshots the cache counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Size: c.order.Len(), Capacity: c.cap, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}
