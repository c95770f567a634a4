// Package cache implements the client-side store of interval approximations.
//
// A cache holds up to kappa approximations. The paper evicts the entry with
// the widest original (pre-threshold) width, "since they are the least
// precise approximations and thus contribute least to overall cache
// precision" (Section 2). Eviction decisions use original widths, not the
// 0/Inf widths produced by the thresholds, and evictions are silent: no
// message is sent for one.
//
// Widest-first presumes width tracks usefulness, but only a refresh moves a
// width: a popular key that always hits is never read, every push doubles
// it, and it becomes the victim. So Cache has one eviction order that knows
// about use — the fewest credited lookups first, then the widest original
// width, then the smaller key — and admission is the same comparison: a
// candidate enters a full cache only if the victim ranks strictly before it.
// A lookup is every Get (not Peek or Contains), hit or miss. A hit credits
// its resident's exact count and nothing else; a miss credits a count-min
// sketch, all the cache remembers about keys it does not hold. A resident's
// count is seeded from the sketch at admission and raised back into it when
// it is evicted or dropped, so a key that returns competes with what it
// earned while held; every ageEvery·capacity lookups all counts are halved,
// so use is recent use. New builds that cache; the networked client runs it.
// NewWidestFirst builds one with no sketch: every count stays 0 and the order
// is the paper's, decision for decision — what the simulator, the figure
// tests and the server's golden digest use. NewShared is New for one Store
// shard: its capacity is a guaranteed base plus the slots it has borrowed
// from a Budget the shards share, kept until it drops an entry, so its
// evictions come from its own admissions only; it counts lookups from the
// moment it first fills, as until then it chooses no victim, so a shard that
// never fills (CacheSize 0 stands for 2^20 slots) never allocates a sketch.
//
// What follows an eviction is the host's decision, not this package's. Put
// implements the paper's rule — the source may keep refreshing an evicted
// entry, and the cache decides afresh whether each refreshed approximation
// is worth (re)admitting — and the simulator, the hierarchy and
// internal/bench use it exactly so. The networked client's cache side
// (internal/cacheside) keeps the silence about messages but not about
// knowledge: it names the keys its Puts left out to the server. The embedded
// Store never mutes: under the shard lock it shares with its source it just
// does not install a refresh for a key it does not hold.
package cache

import (
	"fmt"
	"math"
	"sort"

	"apcache/internal/interval"
)

// resident is a cached approximation as the cache holds it: the interval,
// and the key and original width inside the eviction rank.
type resident struct {
	iv   interval.Interval
	rank widthNode
}

// Cache stores up to a fixed number of approximations, or, built by
// NewShared, up to a base plus what it has borrowed. It is not safe for
// concurrent use: the networked client and each Store shard guard theirs
// with a mutex.
type Cache struct {
	capacity int     // guaranteed slots, before any borrowing
	budget   *Budget // shared slack pool; nil means capacity is a hard cap
	borrowed int     // slots on loan from budget
	entries  map[int]*resident
	widest   widthHeap  // every resident's rank; victim() is the next victim
	uses     *useSketch // lookups per key, resident or not; nil counts none
	lookups  int        // since the counts were last halved
	// countWhenFull is NewShared's: uses is built when the cache first fills.
	countWhenFull bool

	hits, misses   int
	admits, evicts int
	rejects        int
}

// New returns a cache holding at most capacity entries that evicts and
// admits by use first and width second. Capacity must be positive.
func New(capacity int) *Cache {
	c := NewWidestFirst(capacity)
	c.uses = newUseSketch(capacity)
	return c
}

// presized caps the entries a cache makes room for up front: a Store shard's
// capacity may stand for far more slots than it will ever fill.
const presized = 1 << 12

// NewWidestFirst returns a cache that credits no lookups, so that its victim
// is the paper's: the widest original width.
func NewWidestFirst(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[int]*resident, min(capacity, presized)),
		widest:   make(widthHeap, 0, min(capacity, presized)),
	}
}

// NewShared returns a cache ordered as New's whose capacity is base plus the
// slots it borrows from budget: a full cache borrows before it evicts, and
// hands a slot back only as an entry is dropped. A nil budget makes base a
// hard cap.
func NewShared(base int, budget *Budget) *Cache {
	c := NewWidestFirst(base)
	c.countWhenFull = true
	c.budget = budget
	return c
}

// NewSeq is NewShared under the name the benchmark's layer replay calls; it
// goes when the replay moves into the main module (ROADMAP item 1(a)).
func NewSeq(base int, budget *Budget) *Cache { return NewShared(base, budget) }

// Capacity returns the current maximum number of entries: the guaranteed
// base plus the slots on loan from the budget.
func (c *Cache) Capacity() int { return c.capacity + c.borrowed }

// Borrowed returns how many slots are on loan from the budget.
func (c *Cache) Borrowed() int { return c.borrowed }

// Len returns the current number of entries.
func (c *Cache) Len() int { return len(c.entries) }

// Get returns the approximation for key. The second result is false when
// the key is not cached (queries then treat it as unbounded). Either way the
// lookup is credited to the key.
func (c *Cache) Get(key int) (interval.Interval, bool) {
	e, ok := c.entries[key]
	if c.uses != nil {
		c.credit(key, e)
	}
	if !ok {
		c.misses++
		return interval.Interval{}, false
	}
	c.hits++
	return e.iv, true
}

// credit counts one lookup of key, whose entry is e (nil when not cached),
// in O(1): a miss in the sketch, a hit in the resident's pend alone, where it
// waits until the heap next needs it (widthHeap.victim). Once
// ageEvery·capacity lookups have gone by (the guaranteed capacity) every
// count is halved, pending ones folded in first — which can turn a strict
// order between two residents into a tie the width decides the other way,
// hence the rebuild.
func (c *Cache) credit(key int, e *resident) {
	if e != nil {
		e.rank.pend++
	} else {
		c.uses.add(key)
	}
	if c.lookups++; c.lookups < ageEvery*c.capacity {
		return
	}
	c.lookups = 0
	c.uses.halve()
	for _, n := range c.widest {
		n.uses, n.pend = (n.uses+n.pend)/2, 0
	}
	c.widest.rebuild()
}

// Peek is Get without crediting a lookup or touching the hit/miss statistics.
func (c *Cache) Peek(key int) (interval.Interval, bool) {
	e, ok := c.entries[key]
	if !ok {
		return interval.Interval{}, false
	}
	return e.iv, true
}

// Contains reports whether key is cached without crediting a lookup or
// touching statistics.
func (c *Cache) Contains(key int) bool {
	_, ok := c.entries[key]
	return ok
}

// Put installs an approximation for key. If the key is already present its
// entry is replaced in place. Otherwise, if the cache is full, the candidate
// competes with the residents: the least used loses, and among the equally
// used the widest original width — possibly the candidate itself, which is
// then not admitted (Section 2: "the modified approximation may be cached and
// another evicted, or the modified approximation may still be the widest and
// remain uncached"). A full cache with a budget borrows a slot, if the pool
// has one, before the candidate competes. Put returns the key evicted to make
// room, if any; a rejected candidate evicts nothing (Contains tells it apart).
func (c *Cache) Put(key int, iv interval.Interval, originalWidth float64) (evicted int, didEvict bool) {
	if math.IsNaN(originalWidth) || originalWidth < 0 {
		panic(fmt.Sprintf("cache: bad original width %g", originalWidth))
	}
	if e, ok := c.entries[key]; ok {
		e.iv = iv
		if e.rank.width != originalWidth {
			e.rank.width = originalWidth
			c.widest.fix(&e.rank)
		}
		return 0, false
	}
	full := len(c.entries) >= c.Capacity()
	if full && c.countWhenFull {
		// Victims are chosen from here on, so lookups start to count.
		c.uses, c.countWhenFull = newUseSketch(c.capacity), false
	}
	cand := widthNode{key: key, width: originalWidth, uses: c.uses.estimate(key)}
	if full && c.budget != nil && c.budget.Acquire() {
		c.borrowed, full = c.borrowed+1, false
	}
	if !full {
		e := &resident{iv: iv, rank: cand}
		c.entries[key] = e
		c.widest.push(&e.rank)
		c.admits++
		return 0, false
	}
	// Full: the candidate competes with the victim.
	top := c.widest.victim()
	if !top.before(&cand) {
		// No resident is used less, or as little and is wider: reject it.
		c.rejects++
		return 0, false
	}
	// The victim's entry and heap slot become the candidate's.
	evicted = top.key
	c.uses.raise(evicted, top.uses) // victim left no lookups pending
	e := c.entries[evicted]
	delete(c.entries, evicted)
	c.evicts++
	e.iv = iv
	cand.pos = e.rank.pos
	e.rank = cand
	c.widest.fix(&e.rank)
	c.entries[key] = e
	c.admits++
	return evicted, true
}

// Drop removes key if present, returning whether it was cached. Drop models
// an explicit invalidation; telling the source is the host's business. A
// borrowed slot goes back to the budget.
func (c *Cache) Drop(key int) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.uses.raise(key, e.rank.uses+e.rank.pend)
	c.widest.remove(&e.rank)
	delete(c.entries, key)
	c.evicts++
	if c.borrowed > 0 {
		c.borrowed--
		c.budget.Release()
	}
	return true
}

// Keys returns the cached keys in ascending order.
func (c *Cache) Keys() []int {
	keys := make([]int, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Stats reports the cache's cumulative counters.
type Stats struct {
	Hits, Misses   int
	Admits, Evicts int
	Rejects        int
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Admits: c.admits, Evicts: c.evicts, Rejects: c.rejects}
}
