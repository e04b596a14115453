package serve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// cellCache is the content-addressed result cache: canonical CellKey
// encoding -> rendered response body, bounded by an LRU eviction
// policy. Determinism is what makes it sound — the engine's per-job
// seeding guarantees a cached body is byte-identical to what a fresh
// computation of the same key would render — so the cache never needs
// invalidation, only bounding. Bounding is two-dimensional: an entry
// count and a resident-byte budget, because entry count alone lets a
// few very large bodies dwarf thousands of cell entries and blow
// memory without a single eviction.
type cellCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64      // resident key+body bytes, guarded by mu
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// defaultCacheBytes bounds resident bodies when the caller does not:
// generous for cell-sized entries (hundreds of bytes each) while
// keeping the worst case far below container memory limits.
const defaultCacheBytes = 256 << 20

func newCellCache(max int, maxBytes int64) *cellCache {
	if max <= 0 {
		max = 4096
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return &cellCache{max: max, maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached body for a key, promoting it to most recently
// used, and counts the hit or miss.
func (c *cellCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// lookup is get without the hit/miss accounting: the singleflight
// re-check path, which would otherwise double-count a cold request's
// miss (the handler's own get already counted it).
func (c *cellCache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// peek reports whether a key is cached without promoting it or touching
// the hit/miss counters (the sweep handler's upfront miss scan).
func (c *cellCache) peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// put stores a body under a key, evicting from the LRU tail past
// either bound (entries or resident bytes). Storing an existing key
// refreshes its recency but keeps the first body: contents are
// content-addressed, so both writers hold the same bytes. A single
// body larger than the whole byte budget still caches (it was just
// computed; evicting everything else is the best the bound can do) and
// is shed by the next put.
func (c *cellCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += entryBytes(key, body)
	for (c.ll.Len() > c.max || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		tail := c.ll.Back()
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, ent.key)
		c.bytes -= entryBytes(ent.key, ent.body)
		c.evictions.Add(1)
	}
}

// entryBytes is one entry's accounted footprint: the retained key and
// body bytes (map/list overhead is proportional to the entry bound,
// which the count dimension already limits).
func entryBytes(key string, body []byte) int64 {
	return int64(len(key) + len(body))
}

// size returns the current entry count and resident bytes.
func (c *cellCache) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// flightGroup deduplicates concurrent computations of the same key:
// the first caller (the leader) runs fn, everyone else arriving before
// it finishes blocks and shares the leader's result. Errors are shared
// with the in-flight followers but never retained — the next request
// retries fresh.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn under the key's flight, returning the shared result and
// whether this caller was a follower (shared == true).
//
// The unwind is deferred so it runs even when fn panics: without that,
// a panicking leader would leak the map entry and never close done,
// permanently wedging the key — every later request for it would block
// forever. A leader panic instead converts to an error shared with the
// in-flight followers (surfaced upstream as a structured 500, exactly
// like an engine error) and the key recovers: the next request starts
// a fresh flight.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (body []byte, err error, shared bool) {
	g.mu.Lock()
	if call, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.body, call.err, true
	}
	call := &flightCall{done: make(chan struct{})}
	g.calls[key] = call
	g.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			call.body, call.err = nil, fmt.Errorf("panic computing %s: %v", key, p)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(call.done)
		body, err = call.body, call.err
	}()
	call.body, call.err = fn()
	return call.body, call.err, false
}
