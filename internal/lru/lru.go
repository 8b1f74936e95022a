// Package lru is the repository's one cache primitive: a concurrency-safe
// least-recently-used map from string keys to values, bounded by the summed
// cost of the values it holds, with a single-flight Do that makes concurrent
// requests for one key share one build.
//
// The runner's result cache, the server's artifact cache, the checkpoint
// store, the trace cache's complete captures and the tracer's trace ring all
// sit on it. Each picks its own cost unit: entries (cost 1 each) or bytes.
package lru

import (
	"context"
	"errors"
	"sync"
)

// Outcome says how Do served a call.
type Outcome string

const (
	// Miss: nothing was resident and this call ran the build.
	Miss Outcome = "miss"
	// Hit: the value was resident.
	Hit Outcome = "hit"
	// Coalesced: this call waited on another call's build.
	Coalesced Outcome = "coalesced"
)

// Stats is a snapshot of a cache's contents and counters.
type Stats struct {
	Len       int   // resident values
	Cost      int64 // summed cost of the resident values
	Budget    int64
	Hits      int64 // Get and Do calls served a resident value
	Misses    int64 // Get calls that found nothing, Do calls that built
	Coalesced int64 // Do calls served by another call's successful build
	Evictions int64 // values dropped by Put or Trim to respect a budget
}

// errBuildPanicked is what waiters receive when the lead's build panics;
// the panic itself propagates to the lead's caller.
var errBuildPanicked = errors.New("lru: build panicked")

type entry[V any] struct {
	key        string
	val        V
	cost       int64
	prev, next *entry[V]
}

// flight is one build in progress; waiters read val and err once done is
// closed.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is the LRU. Construct it with New; its methods are safe for
// concurrent use.
type Cache[V any] struct {
	mu     sync.Mutex
	budget int64
	cost   int64
	// root is the sentinel of the circular recency list: root.next is the
	// most recent entry, root.prev the least.
	root entry[V]
	// items and flights are allocated on first use, so an engine that never
	// caches pays one allocation for its cache.
	items   map[string]*entry[V]
	flights map[string]*flight[V]

	hits, misses, coalesced, evictions int64
}

// New returns a cache retaining values up to a total cost of budget (a
// negative budget is 0). A zero budget retains no value of positive cost,
// but Do still coalesces.
func New[V any](budget int64) *Cache[V] {
	c := &Cache[V]{budget: max(budget, 0)}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns key's value and makes it the most recent.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.hits++
		c.touch(e)
		return e.val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns key's value without changing its recency or the counters.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under key as the most recent value, then evicts the least
// recent values until the total cost fits the budget. A value costing more
// than the whole budget is not retained, and it removes the value it would
// have replaced.
func (c *Cache[V]) Put(key string, v V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, v, cost)
}

// Trim evicts the least recent values until the total cost is at most
// budget; a negative budget evicts everything. The cache's own budget is
// unchanged. Owners that charge costs the cache does not hold, such as
// the trace cache's captures in progress, trim to what those leave.
func (c *Cache[V]) Trim(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trim(budget)
}

// Range calls fn on each value resident when Range was called, most recent
// first, until fn returns false. It changes neither recency nor the
// counters. fn runs without the cache's lock, so it may call the cache.
func (c *Cache[V]) Range(fn func(key string, v V) bool) {
	c.mu.Lock()
	resident := make([]entry[V], 0, len(c.items))
	for e := c.root.next; e != &c.root; e = e.next {
		resident = append(resident, entry[V]{key: e.key, val: e.val})
	}
	c.mu.Unlock()
	for _, e := range resident {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// Stats snapshots the cache.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Len:       len(c.items),
		Cost:      c.cost,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}

// Do returns key's value, building it when it is not resident. Concurrent
// calls for one key share one build: the first call (the lead) runs build
// itself, under its own ctx and without the cache's lock, and the others
// wait for it. A successful build is stored at the cost build
// returns; a build error reaches every waiter and is never stored.
//
// A waiter whose ctx ends first returns ctx.Err() and leaves the build
// running. A waiter whose ctx is still live when the lead's build ends in
// cancellation (the lead's caller gave up, not the build) takes the build
// over instead of inheriting that error.
func (c *Cache[V]) Do(ctx context.Context, key string, build func(context.Context) (V, int64, error)) (V, Outcome, error) {
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.items[key]; ok {
			c.hits++
			c.touch(e)
			v := e.val // Put may replace it once the lock is released
			c.mu.Unlock()
			return v, Hit, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break // still holding c.mu: this call leads the build
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				c.mu.Lock()
				c.coalesced++
				c.mu.Unlock()
				return f.val, Coalesced, nil
			}
			if isCancellation(f.err) && ctx.Err() == nil {
				continue
			}
			return zero, Coalesced, f.err
		case <-ctx.Done():
			return zero, Coalesced, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{}), err: errBuildPanicked}
	if c.flights == nil {
		c.flights = make(map[string]*flight[V])
	}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	var cost int64
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.put(key, f.val, cost)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, cost, f.err = build(ctx)
	return f.val, Miss, f.err
}

// isCancellation reports whether err is a caller's context ending rather
// than a failure of the build itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// --- recency list and accounting (c.mu held) --------------------------------

func (c *Cache[V]) put(key string, v V, cost int64) {
	e, ok := c.items[key]
	if cost > c.budget {
		if ok {
			c.unlink(e)
		}
		return
	}
	if ok {
		c.cost += cost - e.cost
		e.val, e.cost = v, cost
		c.touch(e)
	} else {
		if c.items == nil {
			c.items = make(map[string]*entry[V])
		}
		e = &entry[V]{key: key, val: v, cost: cost}
		c.items[key] = e
		c.cost += cost
		c.pushFront(e)
	}
	c.trim(c.budget)
}

func (c *Cache[V]) trim(budget int64) {
	for c.cost > budget && c.root.prev != &c.root {
		c.unlink(c.root.prev)
		c.evictions++
	}
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

func (c *Cache[V]) touch(e *entry[V]) {
	if c.root.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	c.pushFront(e)
}

// unlink drops e from the list, the map and the cost total.
func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(c.items, e.key)
	c.cost -= e.cost
}
