package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apcache/internal/interval"
)

func TestPutGet(t *testing.T) {
	c := New(4)
	c.Put(1, interval.Interval{Lo: 0, Hi: 10}, 10)
	iv, ok := c.Get(1)
	if !ok || iv.Lo != 0 || iv.Hi != 10 {
		t.Fatalf("Get(1) = %v, %v", iv, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatalf("Get(2) hit on empty key")
	}
	if c.Len() != 1 || c.Capacity() != 4 {
		t.Errorf("len/cap = %d/%d", c.Len(), c.Capacity())
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := New(1)
	c.Put(1, interval.Exact(5), 0)
	evicted, did := c.Put(1, interval.Interval{Lo: 0, Hi: 10}, 10)
	if did {
		t.Fatalf("in-place replace evicted key %d", evicted)
	}
	iv, _ := c.Get(1)
	if iv.Width() != 10 {
		t.Errorf("replacement not applied: %v", iv)
	}
}

func TestEvictWidestOriginalWidth(t *testing.T) {
	c := New(2)
	c.Put(1, interval.Centered(0, 100), 100)
	c.Put(2, interval.Centered(0, 5), 5)
	evicted, did := c.Put(3, interval.Centered(0, 50), 50)
	if !did || evicted != 1 {
		t.Fatalf("evicted %d (%v), want key 1 (widest)", evicted, did)
	}
	if !c.Contains(3) || !c.Contains(2) || c.Contains(1) {
		t.Errorf("cache contents wrong: %v", c.Keys())
	}
}

func TestEvictLeastUsedBeforeWidest(t *testing.T) {
	c := New(2)
	c.Put(1, interval.Centered(0, 100), 100)
	c.Put(2, interval.Centered(0, 5), 5)
	c.Get(1) // the wide key is the one that is asked for
	c.Get(3) // a miss is a lookup too
	if evicted, did := c.Put(3, interval.Centered(0, 50), 50); !did || evicted != 2 {
		t.Fatalf("evicted %d (%v), want key 2: narrower than key 1 but never looked up", evicted, did)
	}
	// Never looked up, key 4 ranks behind no resident, however narrow.
	if _, did := c.Put(4, interval.Centered(0, 1), 1); did || c.Contains(4) {
		t.Fatalf("a key never looked up displaced one that was: %v", c.Keys())
	}
	// The same history means nothing to a cache that credits no lookups.
	p := NewWidestFirst(2)
	p.Put(1, interval.Centered(0, 100), 100)
	p.Put(2, interval.Centered(0, 5), 5)
	p.Get(1)
	p.Get(3)
	if evicted, did := p.Put(3, interval.Centered(0, 50), 50); !did || evicted != 1 {
		t.Fatalf("widest-first evicted %d (%v), want key 1", evicted, did)
	}
}

func TestRejectWidestCandidate(t *testing.T) {
	c := New(2)
	c.Put(1, interval.Centered(0, 10), 10)
	c.Put(2, interval.Centered(0, 20), 20)
	_, did := c.Put(3, interval.Centered(0, 30), 30)
	if did {
		t.Fatalf("widest candidate caused an eviction")
	}
	if c.Contains(3) {
		t.Fatalf("widest candidate was admitted")
	}
	if got := c.Stats().Rejects; got != 1 {
		t.Errorf("rejects = %d, want 1", got)
	}
}

func TestEvictionUsesOriginalNotEffectiveWidth(t *testing.T) {
	// An entry whose effective interval is exact (width 0 via lambda0) but
	// whose original width is large must still be the eviction victim
	// (Section 2: eviction "is based on original widths, not on 0 or
	// infinity widths due to thresholds").
	c := New(2)
	c.Put(1, interval.Exact(5), 80) // thresholded to exact, original 80
	c.Put(2, interval.Centered(0, 10), 10)
	evicted, did := c.Put(3, interval.Centered(0, 20), 20)
	if !did || evicted != 1 {
		t.Fatalf("evicted %d, want key 1 by original width", evicted)
	}
}

func TestDrop(t *testing.T) {
	c := New(2)
	c.Put(1, interval.Exact(1), 0)
	if !c.Drop(1) {
		t.Fatalf("Drop(1) = false")
	}
	if c.Drop(1) {
		t.Fatalf("double Drop(1) = true")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after drop", c.Len())
	}
}

func TestKeysAndEntriesSorted(t *testing.T) {
	c := New(5)
	for _, k := range []int{4, 1, 3} {
		c.Put(k, interval.Exact(float64(k)), float64(k))
	}
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 4 {
		t.Errorf("Keys = %v", keys)
	}
	for i, e := range entries(c) {
		if e.Key != keys[i] || e.Interval != interval.Exact(float64(e.Key)) {
			t.Errorf("entry %d = %+v, want key %d", i, e, keys[i])
		}
	}
}

// TestHitCreditsOnlyItsResident: a hit counts in its resident's own entry
// and leaves the sketch as it was; a resident that leaves, evicted or
// dropped, raises its count (saturated at 255) into the sketch, so on its
// return it outranks a victim with fewer uses although it is the wider.
func TestHitCreditsOnlyItsResident(t *testing.T) {
	const capacity = 32 // no run here halves the counts: its windows of 16·32 lookups all hit
	for _, tc := range []struct {
		name  string
		hits  int
		leave func(t *testing.T, c *Cache) // makes key 0 leave, and leaves one slot free
	}{
		{"evicted", 40, func(t *testing.T, c *Cache) {
			for i := 0; i < 41; i++ {
				c.Get(capacity) // misses: the candidate's estimate
			}
			if ev, did := c.Put(capacity, interval.Centered(0, 1), 1); !did || ev != 0 {
				t.Fatalf("Put(candidate) = (%d, %v), want key 0, the least used, evicted", ev, did)
			}
			c.Drop(1)
		}},
		{"dropped", 300, func(t *testing.T, c *Cache) { c.Drop(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(capacity)
			for k := 0; k < capacity; k++ {
				c.Put(k, interval.Centered(0, 10), 10)
			}
			before := c.uses.estimate(0)
			for i := 0; i < tc.hits; i++ {
				if _, ok := c.Get(0); !ok {
					t.Fatal("a resident missed")
				}
			}
			if got := c.uses.estimate(0); got != before {
				t.Fatalf("%d hits moved the resident's sketch estimate %d -> %d", tc.hits, before, got)
			}
			for k := 1; k < capacity; k++ {
				for i := 0; i < 50; i++ {
					c.Get(k)
				}
			}
			tc.leave(t, c)
			if got, want := c.uses.estimate(0), uint32(min(tc.hits, 255)); got < want {
				t.Fatalf("key 0 left with %d uses and its estimate is %d, want at least %d", tc.hits, got, want)
			}
			fresh := capacity + 1
			c.Put(fresh, interval.Centered(0, 1), 1) // fills the cache: unused, narrower than key 0
			if ev, did := c.Put(0, interval.Centered(0, 100), 100); !did || ev != fresh {
				t.Fatalf("Put(returning key 0) = (%d, %v), want the fresh key %d evicted", ev, did, fresh)
			}
		})
	}
}

// TestShardAgesAtItsOwnPeriod: a Store shard's cache halves its counts every
// 32 capacities of lookups; the client's learns its period from its hit
// ratio. The periods differ because the hosts do: a shorter period helps the
// Store and hurts the client (see the constants in usesketch.go).
func TestShardAgesAtItsOwnPeriod(t *testing.T) {
	const capacity = 16
	t.Run("NewShard", func(t *testing.T) {
		// The halving shows as a drop in the estimate of a key that only
		// ever misses.
		const period = 32 * capacity
		c := NewShard(capacity)
		for k := 0; k <= capacity; k++ { // the last Put finds it full: NewShard counts from here
			c.Put(k, interval.Centered(0, 1), 1)
		}
		const absent = -1
		last := c.uses.estimate(absent)
		for i := 1; i <= 2*period; i++ {
			c.Get(absent)
			est := c.uses.estimate(absent)
			if est < last {
				if i != period {
					t.Fatalf("the counts were halved at lookup %d, want %d", i, period)
				}
				return
			}
			last = est
		}
		t.Fatalf("no halving in %d lookups, want one at %d", 2*period, period)
	})
	t.Run("New", func(t *testing.T) {
		c := New(capacity)
		for k := 0; k < capacity; k++ {
			c.Put(k, interval.Centered(0, 1), 1)
		}
		var at []int // the lookups, in capacities, at which the counts were halved
		n := 0
		lookup := func(key int) {
			halvings := c.halvings
			c.Get(key)
			if n++; c.halvings > halvings {
				at = append(at, n/capacity)
			}
		}
		for n < 512*capacity { // steady: every other lookup hits
			lookup(n%2 - 1)
		}
		for n < 600*capacity { // the hit ratio falls to 0 and stays there
			lookup(-1)
		}
		// The longest period, then the window that fell, then 16 and 32
		// capacities after it.
		if want := []int{512, 528, 544, 576}; fmt.Sprint(at) != fmt.Sprint(want) {
			t.Fatalf("the counts were halved after %v capacities of lookups, want %v", at, want)
		}
	})
}

func TestStatsAndHitRate(t *testing.T) {
	c := New(2)
	c.Put(1, interval.Exact(1), 0)
	c.Get(1)
	c.Get(1)
	c.Get(9)
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Admits != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := float64(s.Hits) / float64(s.Hits+s.Misses); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("hit rate = %g", got)
	}
	if empty := New(1).Stats(); empty != (Stats{}) {
		t.Errorf("stats of an unused cache = %+v", empty)
	}
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	c := New(2)
	c.Put(1, interval.Exact(1), 0)
	c.Peek(1)
	c.Peek(2)
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("Peek touched stats: %+v", s)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, cap := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", cap)
				}
			}()
			New(cap)
		}()
	}
}

func TestPutPanicsOnBadWidth(t *testing.T) {
	c := New(1)
	for _, w := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put with width %g did not panic", w)
				}
			}()
			c.Put(1, interval.Exact(0), w)
		}()
	}
}

func TestQuickNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, capRaw, opsRaw uint8) bool {
		capacity := int(capRaw)%8 + 1
		ops := int(opsRaw)
		rng := rand.New(rand.NewSource(seed))
		c := New(capacity)
		for i := 0; i < ops; i++ {
			key := rng.Intn(16)
			switch rng.Intn(3) {
			case 0, 1:
				w := rng.Float64() * 100
				c.Put(key, interval.Centered(0, w), w)
			case 2:
				c.Drop(key)
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEvictionVictimIsWidest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(4)
		widths := map[int]float64{}
		for k := 0; k < 4; k++ {
			w := rng.Float64() * 100
			widths[k] = w
			c.Put(k, interval.Centered(0, w), w)
		}
		newW := rng.Float64() * 100
		evicted, did := c.Put(99, interval.Centered(0, newW), newW)
		if !did {
			// Rejected: candidate must be >= all residents.
			for _, w := range widths {
				if newW < w {
					return false
				}
			}
			return true
		}
		// Evicted key must have had the maximum width among residents.
		for _, w := range widths {
			if widths[evicted] < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
