package shard

import (
	"container/list"
	"sync"

	"repro/internal/graph"
)

// resident is a shard decoded into the layout of parallel application:
// edges are grouped into destination sub-ranges whose bounds are
// aligned to 64 vertices, so each sub-range's task owns its frontier
// bitmap words exclusively and updates need no atomics. The grouping
// preserves the shard file's edge order within each sub-range — for
// (dst,src)-sorted shards the decoded arrays already are the layout
// (Engine.residentSorted), v1 CSR-order shards are stably bucketed
// (Engine.bucket) — and since all in-edges of a destination fall into
// one sub-range, the per-destination application order is independent
// of the task count.
type resident struct {
	idx      int
	src, dst []graph.VID
	off      []int // len = tasks+1; task t owns edges [off[t], off[t+1])
}

// engineCache is the residency surface the sweep machinery drives:
// get/put pin the shard for the caller until the matching release (the
// fetch-to-apply span), peek and snapshot are the planner's non-mutating
// views. The private lruCache implements it with no-op pinning — one
// engine's sweeps are serial, so nothing can evict a shard mid-apply —
// and the multi-tenant sessionCache implements it over the shared
// refcounted SharedCache, where the pins are load-bearing.
type engineCache interface {
	get(i int) (*resident, bool)
	peek(i int) bool
	put(sh *resident)
	release(i int)
	snapshot() []int
	len() int
}

// lruCache keeps up to cap resident shards, evicting the least recently
// used. It is the mechanism that lets iterative algorithms (PageRank's
// fixed sweeps, label propagation) avoid re-reading cold files every
// EdgeMap when the working set fits the budget.
type lruCache struct {
	cap int
	mu  sync.Mutex
	ll  *list.List // front = most recently used; values are *resident
	idx map[int]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, ll: list.New(), idx: make(map[int]*list.Element)}
}

// get returns the resident shard i if cached, promoting it to most
// recently used.
func (c *lruCache) get(i int) (*resident, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[i]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*resident), true
}

// peek reports whether shard i is cached without promoting it — the
// stager's issue-time residency prediction. It deliberately leaves the
// LRU untouched: promotions happen only at reap time, in plan order,
// so the cache sees the exact get/put sequence a synchronous sweep
// would issue and the planner's simulation stays exact at any IODepth.
func (c *lruCache) peek(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.idx[i]
	return ok
}

// put inserts shard i, evicting from the cold end past capacity.
func (c *lruCache) put(sh *resident) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[sh.idx]; ok {
		c.ll.MoveToFront(el)
		el.Value = sh
		return
	}
	c.idx[sh.idx] = c.ll.PushFront(sh)
	for c.ll.Len() > c.cap {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.idx, cold.Value.(*resident).idx)
	}
}

// release is a no-op: a private engine's sweeps are serial, so a shard
// between fetch and apply cannot be evicted by anyone else — the pin
// discipline only carries weight on the shared sessionCache.
func (c *lruCache) release(int) {}

// snapshot returns the resident shard indices, most recently used
// first, without promoting anything — the sweep-order planner's view of
// the cache.
func (c *lruCache) snapshot() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*resident).idx)
	}
	return out
}

// len returns the number of resident shards.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
