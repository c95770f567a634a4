package cache

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"apcache/internal/interval"
)

// entry is one cached approximation as the references hold it and as
// entries reads it out of a Cache.
type entry struct {
	Key           int
	Interval      interval.Interval
	OriginalWidth float64
}

// entries returns c's entries in ascending key order.
func entries(c *Cache) []entry {
	out := make([]entry, 0, c.Len())
	for _, k := range c.Keys() {
		e := c.entries[k]
		out = append(out, entry{Key: k, Interval: e.iv, OriginalWidth: e.rank.width})
	}
	return out
}

// scanCache is Cache as it stood before the eviction index — a map and a
// full scan for the widest resident — kept as the reference the heap-backed
// Cache must match decision for decision.
type scanCache struct {
	capacity int
	entries  map[int]*entry
	stats    Stats
}

func (c *scanCache) get(key int) (interval.Interval, bool) {
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return interval.Interval{}, false
	}
	c.stats.Hits++
	return e.Interval, true
}

func (c *scanCache) put(key int, iv interval.Interval, originalWidth float64) (evicted int, didEvict, rejected bool) {
	if e, ok := c.entries[key]; ok {
		e.Interval, e.OriginalWidth = iv, originalWidth
		return 0, false, false
	}
	if len(c.entries) < c.capacity {
		c.entries[key] = &entry{Key: key, Interval: iv, OriginalWidth: originalWidth}
		c.stats.Admits++
		return 0, false, false
	}
	widestKey, widest := 0, math.Inf(-1)
	for k, e := range c.entries {
		if e.OriginalWidth > widest || (e.OriginalWidth == widest && k < widestKey) {
			widestKey, widest = k, e.OriginalWidth
		}
	}
	if originalWidth >= widest {
		c.stats.Rejects++
		return 0, false, true
	}
	delete(c.entries, widestKey)
	c.stats.Evicts++
	c.entries[key] = &entry{Key: key, Interval: iv, OriginalWidth: originalWidth}
	c.stats.Admits++
	return widestKey, true, false
}

func (c *scanCache) drop(key int) bool {
	if _, ok := c.entries[key]; !ok {
		return false
	}
	delete(c.entries, key)
	c.stats.Evicts++
	return true
}

func (c *scanCache) sorted() []entry {
	out := make([]entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

func (c *scanCache) counters() Stats { return c.stats }
func (c *scanCache) uses(int) uint32 { return 0 }
func (c *scanCache) agedTimes() int  { return 0 }

// useScanCache is the use-aware order the slow obvious way: a count per
// resident in a map, a sketch of its own for everything else — the misses,
// and each leaving resident's count — and a full scan that recomputes the
// victim — fewest uses, then widest, then smallest key — at every Put that
// finds the cache full. It keeps every lookup's outcome, and at the end of
// each window counts the hits of that window and the one before it.
type useScanCache struct {
	scanCache
	counts map[int]uint32 // residents only
	sketch *useSketch
	hit    []bool // every lookup so far: whether it hit
	since  int    // lookups since the counts were last halved
	period int    // in capacities
	aged   int
}

func (c *useScanCache) get(key int) (interval.Interval, bool) {
	iv, ok := c.scanCache.get(key)
	if ok {
		c.counts[key]++
	} else {
		c.sketch.add(key)
	}
	c.hit = append(c.hit, ok)
	c.since++
	w, n := ageWindow*c.capacity, len(c.hit)
	if n%w != 0 {
		return iv, ok
	}
	hits := func(lookups []bool) (h int) {
		for _, ok := range lookups {
			if ok {
				h++
			}
		}
		return h
	}
	if n >= 2*w && 10*hits(c.hit[n-w:]) < 9*hits(c.hit[n-2*w:n-w]) {
		c.age()
		c.period = ageWindow
	} else if c.since >= c.period*c.capacity {
		c.age()
		c.period = min(2*c.period, maxAgeEvery)
	}
	return iv, ok
}

func (c *useScanCache) age() {
	c.since = 0
	c.aged++
	c.sketch.halve()
	for k := range c.counts {
		c.counts[k] /= 2
	}
}

func (c *useScanCache) put(key int, iv interval.Interval, originalWidth float64) (evicted int, didEvict, rejected bool) {
	if _, ok := c.entries[key]; ok || len(c.entries) < c.capacity {
		if !ok {
			c.counts[key] = c.sketch.estimate(key)
		}
		return c.scanCache.put(key, iv, originalWidth)
	}
	victim, found := 0, false
	for k := range c.entries {
		if !found || c.sooner(k, victim) {
			victim, found = k, true
		}
	}
	n := c.sketch.estimate(key)
	if n < c.counts[victim] || (n == c.counts[victim] && originalWidth >= c.entries[victim].OriginalWidth) {
		c.stats.Rejects++
		return 0, false, true
	}
	c.sketch.raise(victim, c.counts[victim])
	delete(c.entries, victim)
	delete(c.counts, victim)
	c.stats.Evicts++
	c.entries[key] = &entry{Key: key, Interval: iv, OriginalWidth: originalWidth}
	c.counts[key] = n
	c.stats.Admits++
	return victim, true, false
}

// sooner reports whether resident a is evicted before resident b.
func (c *useScanCache) sooner(a, b int) bool {
	if c.counts[a] != c.counts[b] {
		return c.counts[a] < c.counts[b]
	}
	if wa, wb := c.entries[a].OriginalWidth, c.entries[b].OriginalWidth; wa != wb {
		return wa > wb
	}
	return a < b
}

func (c *useScanCache) drop(key int) bool {
	if n, ok := c.counts[key]; ok {
		c.sketch.raise(key, n)
	}
	delete(c.counts, key)
	return c.scanCache.drop(key)
}

func (c *useScanCache) uses(key int) uint32 { return c.counts[key] }
func (c *useScanCache) agedTimes() int      { return c.aged }

// checkHeap verifies the index itself: one node per resident, every node
// where its pos says, no child above its parent.
func checkHeap(t *testing.T, c *Cache, step int) {
	t.Helper()
	if len(c.widest) != len(c.entries) {
		t.Fatalf("step %d: heap holds %d nodes for %d residents", step, len(c.widest), len(c.entries))
	}
	for i, n := range c.widest {
		if n.pos != i || &c.entries[n.key].rank != n {
			t.Fatalf("step %d: node for key %d at %d records pos %d", step, n.key, i, n.pos)
		}
		if i > 0 && n.above(c.widest[(i-1)/2]) {
			t.Fatalf("step %d: key %d (%d uses, width %g) sits below a parent it is evicted before", step, n.key, n.uses, n.width)
		}
	}
}

// TestCacheMatchesFullScan drives each constructor's cache and a reference
// that decides by full scan through the same random operations and demands
// the same decision, contents, counters, counts and halvings at every step: the
// widest-first cache against the scan Cache was before it had an index, the
// use-aware cache against useScanCache.
func TestCacheMatchesFullScan(t *testing.T) {
	const capacity, keys = 48, 160
	type reference interface {
		get(key int) (interval.Interval, bool)
		put(key int, iv interval.Interval, originalWidth float64) (evicted int, didEvict, rejected bool)
		drop(key int) bool
		sorted() []entry
		counters() Stats
		uses(key int) uint32
		agedTimes() int
	}
	for _, tc := range []struct {
		name    string
		c       *Cache
		ref     reference
		ageings int // the least the run must see
	}{
		{"widest-first", NewWidestFirst(capacity), &scanCache{capacity: capacity, entries: map[int]*entry{}}, 0},
		{"use-aware", New(capacity), &useScanCache{
			scanCache: scanCache{capacity: capacity, entries: map[int]*entry{}},
			counts:    map[int]uint32{}, sketch: newUseSketch(capacity), period: maxAgeEvery,
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops, ageings := 100000, tc.ageings
			if testing.Short() || raceEnabled {
				ops, ageings = 10000, min(ageings, 1)
			}
			c, ref := tc.c, tc.ref
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < ops; step++ {
				key := rng.Intn(keys)
				switch r := rng.Intn(10); {
				case r < 5:
					// Eight distinct widths over 48 slots: ties at the top are the rule.
					w := float64(rng.Intn(8))
					iv := interval.Centered(rng.Float64(), w)
					rejectsBefore := c.Stats().Rejects
					ev, did := c.Put(key, iv, w)
					wantEv, wantDid, wantRej := ref.put(key, iv, w)
					if ev != wantEv || did != wantDid || (c.Stats().Rejects > rejectsBefore) != wantRej {
						t.Fatalf("step %d: Put(%d, width %g) = (%d, %v), full scan (%d, %v, rejected %v)", step, key, w, ev, did, wantEv, wantDid, wantRej)
					}
				case r < 6:
					if got, want := c.Drop(key), ref.drop(key); got != want {
						t.Fatalf("step %d: Drop(%d) = %v, full scan %v", step, key, got, want)
					}
				default:
					// Lookups lean toward the small keys, so that counts differ;
					// about a third of them miss. Every 5000 ops the keys they
					// lean toward move, and the hit ratio falls.
					key = (rng.Intn(1+key) + step/5000*61) % keys
					iv, ok := c.Get(key)
					wantIv, wantOk := ref.get(key)
					if iv != wantIv || ok != wantOk {
						t.Fatalf("step %d: Get(%d) = (%v, %v), full scan (%v, %v)", step, key, iv, ok, wantIv, wantOk)
					}
				}
				if c.Stats() != ref.counters() {
					t.Fatalf("step %d: stats %+v, full scan %+v", step, c.Stats(), ref.counters())
				}
				got, want := entries(c), ref.sorted()
				if len(got) != len(want) {
					t.Fatalf("step %d: %d entries, full scan %d", step, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: entry %d is %+v, full scan %+v", step, i, got[i], want[i])
					}
					if r, wantN := &c.entries[got[i].Key].rank, ref.uses(got[i].Key); r.uses+r.pend != wantN {
						t.Fatalf("step %d: key %d is credited %d lookups, full scan %d", step, got[i].Key, r.uses+r.pend, wantN)
					}
				}
				if c.halvings != ref.agedTimes() {
					t.Fatalf("step %d: the counts were halved %d times, full scan %d", step, c.halvings, ref.agedTimes())
				}
				checkHeap(t, c, step)
			}
			if s := c.Stats(); s.Evicts == 0 || s.Rejects == 0 || s.Hits == 0 || s.Misses == 0 {
				t.Fatalf("the op mix never evicted, rejected, hit or missed: %+v", s)
			}
			if ref.agedTimes() < ageings {
				t.Fatalf("the counts were halved %d times in %d ops, want at least %d", ref.agedTimes(), ops, ageings)
			}
		})
	}
}

// TestCachePutAllocs: a full cache installs without allocating, whichever
// way the Put goes — the evicting one reuses the victim's entry — and looks
// up without allocating, hit or miss, including the lookup that halves every
// count and rebuilds the index and New's end-of-window check. The Store's shard cache is measured too.
// (AllocsPerRun's warm-up call makes the first full Put, which builds that
// cache's sketch.)
func TestCachePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity = 1024
	for _, tc := range []struct {
		name string
		c    *Cache
	}{
		{"New", New(capacity)},
		{"NewShard", NewShard(capacity)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			for k := 0; k < capacity; k++ {
				c.Put(k, interval.Centered(0, 100), 100+float64(k))
			}
			if c.Len() != capacity {
				t.Fatalf("filled to %d entries, want %d", c.Len(), capacity)
			}
			next, w := capacity, 100.0
			evicting := testing.AllocsPerRun(1000, func() {
				w -= 0.01 // narrower than every resident: always admitted
				if _, did := c.Put(next, interval.Centered(0, w), w); !did {
					t.Fatal("a narrower candidate did not evict")
				}
				next++
			})
			rejects := c.Stats().Rejects
			rejecting := testing.AllocsPerRun(1000, func() {
				c.Put(next, interval.Centered(0, 1e9), 1e9)
			})
			if c.Stats().Rejects-rejects < 1000 {
				t.Fatal("a wider candidate was not rejected")
			}
			resident := c.Keys()[0]
			replacing := testing.AllocsPerRun(1000, func() {
				w -= 0.01
				c.Put(resident, interval.Centered(0, w), w)
			})
			if evicting != 0 || rejecting != 0 || replacing != 0 {
				t.Errorf("allocs per Put on a full cache: evicting %g, rejecting %g, replacing %g; want 0, 0, 0", evicting, rejecting, replacing)
			}
			hitting := testing.AllocsPerRun(1000, func() {
				if _, ok := c.Get(resident); !ok {
					t.Fatal("a resident missed")
				}
			})
			missing := testing.AllocsPerRun(1000, func() {
				if _, ok := c.Get(-1); ok {
					t.Fatal("a key never put hit")
				}
			})
			ageing := testing.AllocsPerRun(10, func() {
				c.lookups, c.window = c.ageEvery*c.capacity-1, ageWindow*c.capacity-1
				c.Get(resident)
				if c.lookups != 0 {
					t.Fatal("the lookup did not age the counts")
				}
			})
			// New's window check: a window that holds its hit ratio, and one
			// whose ratio fell, which halves the counts.
			windowEnd := func(lastHits int) func() {
				return func() {
					c.lookups, c.window, c.windowHits, c.lastHits = 0, ageWindow*c.capacity-1, 0, lastHits
					halvings := c.halvings
					c.Get(resident)
					if fell := c.halvings > halvings; fell != (lastHits > 0) || c.window != 0 {
						t.Fatalf("a window after one of %d hits halved the counts: %v", lastHits, fell)
					}
				}
			}
			holding, falling := 0.0, 0.0
			if c.learn {
				holding, falling = testing.AllocsPerRun(10, windowEnd(0)), testing.AllocsPerRun(10, windowEnd(c.capacity))
			}
			if hitting != 0 || missing != 0 || ageing != 0 || holding != 0 || falling != 0 {
				t.Errorf("allocs per Get: hit %g, miss %g, ageing %g, window holding %g, window falling %g; want 0 each", hitting, missing, ageing, holding, falling)
			}
		})
	}
}

var sinkEvicted int

// BenchmarkCacheGet times the lookup a use-aware cache pays for: on a hit the
// resident's own pending count, on a miss four sketch counters.
// The keys are zipf-skewed over eight times the capacity, as query_zipf's
// are, and the periodic halving is inside the loop.
func BenchmarkCacheGet(b *testing.B) {
	for _, capacity := range []int{1024, 8192} {
		b.Run(fmt.Sprint(capacity), func(b *testing.B) {
			c := New(capacity)
			for k := 0; k < capacity; k++ {
				c.Put(k, interval.Centered(0, 4), 4)
			}
			zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(8*capacity-1))
			keys := make([]int, 1<<16)
			for i := range keys {
				keys[i] = int(zipf.Uint64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get(keys[i%len(keys)]); ok {
					sinkEvicted++
				}
			}
		})
	}
}

// BenchmarkCachePutEvicting times the Put that costs the most: a full cache
// and a candidate narrower than every resident, so each call evicts.
func BenchmarkCachePutEvicting(b *testing.B) {
	for _, capacity := range []int{1024, 8192} {
		b.Run(fmt.Sprint(capacity), func(b *testing.B) {
			c := New(capacity)
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < capacity; k++ {
				w := 1e6 + rng.Float64()*1e6
				c.Put(k, interval.Centered(0, w), w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Narrower than everything before it: the new entry sifts
				// from the top of the index to a leaf, its worst case.
				w := 1e6 / float64(i+1)
				ev, _ := c.Put(capacity+i, interval.Centered(0, w), w)
				sinkEvicted += ev
			}
		})
	}
}
