package cache

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"apcache/internal/interval"
)

// scanCache is Cache as it stood before the eviction index — a map and a
// full scan for the widest resident — kept as the reference the heap-backed
// Cache must match decision for decision.
type scanCache struct {
	capacity int
	entries  map[int]*Entry
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
		c.entries[key] = &Entry{Key: key, Interval: iv, OriginalWidth: originalWidth}
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
	c.entries[key] = &Entry{Key: key, Interval: iv, OriginalWidth: originalWidth}
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

func (c *scanCache) sorted() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

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
			t.Fatalf("step %d: key %d (width %g) sits below a narrower parent", step, n.key, n.width)
		}
	}
}

func TestCacheMatchesFullScan(t *testing.T) {
	ops := 100000
	if testing.Short() || raceEnabled {
		ops = 10000
	}
	const capacity, keys = 48, 160
	rng := rand.New(rand.NewSource(7))
	c := New(capacity)
	ref := &scanCache{capacity: capacity, entries: map[int]*Entry{}}
	for step := 0; step < ops; step++ {
		key := rng.Intn(keys)
		switch r := rng.Intn(10); {
		case r < 7:
			// Eight distinct widths over 48 slots: ties at the top are the rule.
			w := float64(rng.Intn(8))
			iv := interval.Centered(rng.Float64(), w)
			rejectsBefore := c.Stats().Rejects
			ev, did := c.Put(key, iv, w)
			wantEv, wantDid, wantRej := ref.put(key, iv, w)
			if ev != wantEv || did != wantDid || (c.Stats().Rejects > rejectsBefore) != wantRej {
				t.Fatalf("step %d: Put(%d, width %g) = (%d, %v), full scan (%d, %v, rejected %v)", step, key, w, ev, did, wantEv, wantDid, wantRej)
			}
		case r < 8:
			if got, want := c.Drop(key), ref.drop(key); got != want {
				t.Fatalf("step %d: Drop(%d) = %v, full scan %v", step, key, got, want)
			}
		default:
			iv, ok := c.Get(key)
			wantIv, wantOk := ref.get(key)
			if iv != wantIv || ok != wantOk {
				t.Fatalf("step %d: Get(%d) = (%v, %v), full scan (%v, %v)", step, key, iv, ok, wantIv, wantOk)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("step %d: stats %+v, full scan %+v", step, c.Stats(), ref.stats)
		}
		got, want := c.Entries(), ref.sorted()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d entries, full scan %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: entry %d is %+v, full scan %+v", step, i, got[i], want[i])
			}
		}
		checkHeap(t, c, step)
	}
	if s := c.Stats(); s.Evicts == 0 || s.Rejects == 0 {
		t.Fatalf("the op mix never evicted or never rejected: %+v", s)
	}
}

// TestCachePutAllocs: a full cache installs without allocating, whichever
// way the Put goes — the evicting one reuses the victim's entry.
func TestCachePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity = 1024
	c := New(capacity)
	for k := 0; k < capacity; k++ {
		c.Put(k, interval.Centered(0, 100), 100+float64(k))
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
}

var sinkEvicted int

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
