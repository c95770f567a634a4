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
// A lookup is every Get (not Peek or Contains), hit or miss. Each is credited
// in a count-min sketch, all the cache remembers about a key it does not
// hold; a resident keeps its exact count, seeded from the sketch at
// admission; every ageEvery·capacity lookups all counts are halved, so use is
// recent use. New builds that cache and the networked client runs it.
// NewWidestFirst builds one with no sketch: every count stays 0 and the order
// is the paper's, decision for decision — what the simulator, the figure
// tests and the golden digests use. One type, one heap, one ordering.
// (SeqCache, under the embedded Store, is still widest-first.)
//
// What follows an eviction is the host's decision, not this package's. Put
// implements the paper's rule — the source may keep refreshing an evicted
// entry, and the cache decides afresh whether each refreshed approximation
// is worth (re)admitting — and the simulator, the hierarchy and
// internal/bench use it exactly so. The serving hosts keep the silence about
// messages but not about knowledge. The networked client admits only on the
// reply to a read or subscribe, never on a push (it checks Contains first),
// and names the keys its Puts left out — the evicted victim, the rejected
// candidate — on the tail of its next ReadMulti, so the server drops their
// subscriptions. The embedded Store never mutes: under the shard lock it
// shares with its source it just does not install a refresh for a key it
// does not hold. The rules (R1–R4) and the argument that no interval is left
// held and unrefreshed while a reply is in flight are stated once, in
// internal/source.
package cache

import (
	"fmt"
	"math"
	"sort"

	"apcache/internal/interval"
)

// Entry is one cached approximation.
type Entry struct {
	// Key identifies the source value.
	Key int
	// Interval is the effective approximation served to queries.
	Interval interval.Interval
	// OriginalWidth is the source's pre-threshold width, the eviction rank.
	OriginalWidth float64
}

// resident is a cached approximation as the cache holds it: the interval,
// and the key and original width inside the eviction rank.
type resident struct {
	iv   interval.Interval
	rank widthNode
}

// Cache stores up to a fixed number of approximations. It is not safe for
// concurrent use; the networked client wraps it with a mutex.
type Cache struct {
	capacity int
	entries  map[int]*resident
	widest   widthHeap  // every resident's rank; the top is the next victim
	uses     *useSketch // lookups per key, resident or not; nil counts none
	lookups  int        // since the counts were last halved

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

// NewWidestFirst returns a cache that credits no lookups, so that its victim
// is the paper's: the widest original width.
func NewWidestFirst(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[int]*resident, capacity),
		widest:   make(widthHeap, 0, capacity),
	}
}

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.capacity }

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
// and halves every count once ageEvery·capacity lookups have gone by —
// which can turn a strict order between two residents into a tie the width
// decides the other way, hence the rebuild.
func (c *Cache) credit(key int, e *resident) {
	c.uses.add(key)
	if e != nil {
		e.rank.uses++
		c.widest.fix(&e.rank)
	}
	if c.lookups++; c.lookups < ageEvery*c.capacity {
		return
	}
	c.lookups = 0
	c.uses.halve()
	for _, n := range c.widest {
		n.uses /= 2
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
// remain uncached").
//
// Put returns the key that was evicted to make room, or (0, false) if
// nothing was evicted (including the case where the candidate was rejected —
// check Admitted via Contains if needed).
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
	cand := widthNode{key: key, width: originalWidth, uses: c.uses.estimate(key)}
	if len(c.entries) < c.capacity {
		e := &resident{iv: iv, rank: cand}
		c.entries[key] = e
		c.widest.push(&e.rank)
		c.admits++
		return 0, false
	}
	// Full: the candidate competes with the victim.
	top := c.widest.top()
	if !top.before(&cand) {
		// No resident is used less, or as little and is wider: reject it.
		c.rejects++
		return 0, false
	}
	// The victim's entry and heap slot become the candidate's.
	evicted = top.key
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
// an explicit invalidation; telling the source is the host's business.
func (c *Cache) Drop(key int) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.widest.remove(&e.rank)
	delete(c.entries, key)
	c.evicts++
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

// Entries returns copies of all entries ordered by ascending key.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, k := range c.Keys() {
		e := c.entries[k]
		out = append(out, Entry{Key: k, Interval: e.iv, OriginalWidth: e.rank.width})
	}
	return out
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
