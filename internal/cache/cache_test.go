package cache

import (
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
	entries := c.Entries()
	for i, e := range entries {
		if e.Key != keys[i] {
			t.Errorf("Entries[%d].Key = %d, want %d", i, e.Key, keys[i])
		}
	}
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
