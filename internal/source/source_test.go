package source

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apcache/internal/core"
	"apcache/internal/study/policy"
)

func params() core.Params {
	return core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
}

// fixedRand always fires probabilistic adjustments.
type fixedRand struct{}

func (fixedRand) Float64() float64 { return 0 }

func newTestSource(initialWidth float64) *Source {
	return New(func(cacheID, key int) core.WidthPolicy {
		return core.NewController(params(), initialWidth, fixedRand{})
	})
}

func TestSubscribeShipsCenteredInterval(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	r, installed := s.Subscribe(0, 1)
	if r.Value != 100 {
		t.Fatalf("value %g", r.Value)
	}
	if r.Interval.Lo != 95 || r.Interval.Hi != 105 {
		t.Errorf("interval %v, want [95, 105]", r.Interval)
	}
	if r.OriginalWidth != 10 {
		t.Errorf("original width %g", r.OriginalWidth)
	}
	if !installed || s.Subscriptions() != 1 {
		t.Errorf("Subscribe installed %v, %d subscriptions; want a new pair", installed, s.Subscriptions())
	}
}

func TestSubscribeIdempotent(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	a, first := s.Subscribe(0, 1)
	b, again := s.Subscribe(0, 1)
	if a.Interval != b.Interval {
		t.Errorf("re-subscribe changed interval: %v vs %v", a.Interval, b.Interval)
	}
	if !first || again {
		t.Errorf("installed %v then %v, want true then false", first, again)
	}
	if s.Subscriptions() != 1 {
		t.Errorf("subscriptions = %d", s.Subscriptions())
	}
}

func TestSubscribeUnknownKeyPanics(t *testing.T) {
	s := newTestSource(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	s.Subscribe(0, 99)
}

func TestSetWithinIntervalIsSilent(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	s.Subscribe(0, 1)
	refreshes := s.Set(1, 104) // inside [95, 105]
	if len(refreshes) != 0 {
		t.Fatalf("got %d refreshes for in-interval update", len(refreshes))
	}
	if v, _ := s.Value(1); v != 104 {
		t.Errorf("value not updated: %g", v)
	}
}

func TestSetEscapeTriggersVIRAndGrowth(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	s.Subscribe(0, 1)
	refreshes := s.Set(1, 110) // escapes [95, 105]
	if len(refreshes) != 1 {
		t.Fatalf("got %d refreshes, want 1", len(refreshes))
	}
	r := refreshes[0]
	// alpha=1, theta=1: width doubles to 20, centered on 110.
	if r.Interval.Lo != 100 || r.Interval.Hi != 120 {
		t.Errorf("refresh interval %v, want [100, 120]", r.Interval)
	}
	if r.OriginalWidth != 20 {
		t.Errorf("original width %g, want 20", r.OriginalWidth)
	}
	if !r.Interval.Valid(110) {
		t.Errorf("shipped interval invalid for new value")
	}
}

func TestSetRefreshesOnlyInvalidatedCaches(t *testing.T) {
	s := New(func(cacheID, key int) core.WidthPolicy {
		// Cache 0 gets a narrow interval, cache 1 a wide one.
		w := 10.0
		if cacheID == 1 {
			w = 1000
		}
		return core.NewController(params(), w, fixedRand{})
	})
	s.SetInitial(1, 100)
	s.Subscribe(0, 1)
	s.Subscribe(1, 1)
	refreshes := s.Set(1, 110)
	if len(refreshes) != 1 || refreshes[0].CacheID != 0 {
		t.Fatalf("refreshes %+v, want only cache 0", refreshes)
	}
}

func TestReadAdjustsAndShips(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	s.Subscribe(0, 1)
	r := s.Read(0, 1)
	if r.Value != 100 {
		t.Fatalf("read value %g", r.Value)
	}
	// QIR with theta=1 alpha=1 halves the width to 5.
	if r.Interval.Width() != 5 {
		t.Errorf("width after QIR = %g, want 5", r.Interval.Width())
	}
}

func TestReadAutoSubscribes(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 50)
	r := s.Read(7, 1)
	if _, installed := s.Subscribe(7, 1); installed {
		t.Fatalf("Read did not subscribe")
	}
	if !r.Interval.Valid(50) {
		t.Errorf("interval %v invalid for 50", r.Interval)
	}
}

func TestReadUnknownKeyPanics(t *testing.T) {
	s := newTestSource(10)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	s.Read(0, 42)
}

func TestUnsubscribeStopsRefreshes(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	s.Subscribe(0, 1)
	if !s.Unsubscribe(0, 1) {
		t.Fatalf("Unsubscribe = false")
	}
	if s.Unsubscribe(0, 1) {
		t.Fatalf("double Unsubscribe = true")
	}
	if got := s.Set(1, 1e9); len(got) != 0 {
		t.Errorf("refreshes after unsubscribe: %+v", got)
	}
}

func TestUnsubscribeCacheReapsOnlyThatCache(t *testing.T) {
	s := newTestSource(10)
	for _, key := range []int{1, 7, 300} {
		s.SetInitial(key, 0)
		s.Subscribe(0, key)
		s.Subscribe(1, key)
	}
	if n := s.UnsubscribeCache(0); n != 3 {
		t.Fatalf("UnsubscribeCache(0) reaped %d, want 3", n)
	}
	if n := s.UnsubscribeCache(0); n != 0 {
		t.Errorf("second UnsubscribeCache(0) reaped %d, want 0", n)
	}
	if s.Subscriptions() != 3 {
		t.Errorf("cache 1 lost subscriptions: %d live, want 3", s.Subscriptions())
	}
	// Cache 1 still gets refreshes; cache 0 gets none.
	for _, r := range s.Set(7, 1e9) {
		if r.CacheID == 0 {
			t.Errorf("refresh prepared for reaped cache: %+v", r)
		}
	}
}

func TestEvictedEntriesKeepRefreshing(t *testing.T) {
	// The paper's protocol: caches do not notify sources of evictions, so
	// the source keeps pushing VIRs. We model eviction as simply not
	// unsubscribing; the subscription must stay live.
	s := newTestSource(10)
	s.SetInitial(1, 0)
	s.Subscribe(0, 1)
	// Cache evicts silently - nothing happens at the source.
	got := s.Set(1, 100)
	if len(got) != 1 {
		t.Errorf("source stopped refreshing after silent eviction")
	}
}

func TestUncenteredPolicyGetsDirectionalSignal(t *testing.T) {
	s := New(func(cacheID, key int) core.WidthPolicy {
		return policy.NewUncenteredController(params(), 8, fixedRand{})
	})
	s.SetInitial(1, 100)
	s.Subscribe(0, 1) // [96, 104]
	refreshes := s.Set(1, 110)
	if len(refreshes) != 1 {
		t.Fatalf("refreshes %d", len(refreshes))
	}
	iv := refreshes[0].Interval
	// Above-escape grows only the upper width: lower 4, upper 8 around 110.
	if iv.Lo != 106 || iv.Hi != 118 {
		t.Errorf("interval %v, want [106, 118]", iv)
	}
	// Below-escape grows the lower width.
	refreshes = s.Set(1, 100)
	iv = refreshes[0].Interval
	if 100-iv.Lo != 8 {
		t.Errorf("below-escape lower width %g, want 8", 100-iv.Lo)
	}
}

func TestIntervalForAndPolicyFor(t *testing.T) {
	s := newTestSource(10)
	s.SetInitial(1, 100)
	if _, ok := s.IntervalFor(0, 1); ok {
		t.Fatalf("IntervalFor before subscribe = ok")
	}
	if _, ok := s.PolicyFor(0, 1); ok {
		t.Fatalf("PolicyFor before subscribe = ok")
	}
	s.Subscribe(0, 1)
	iv, ok := s.IntervalFor(0, 1)
	if !ok || !iv.Valid(100) {
		t.Errorf("IntervalFor = %v, %v", iv, ok)
	}
	if p, ok := s.PolicyFor(0, 1); !ok || p.Width() != 10 {
		t.Errorf("PolicyFor wrong")
	}
}

func TestKeysCount(t *testing.T) {
	s := newTestSource(1)
	s.SetInitial(1, 0)
	s.SetInitial(2, 0)
	if s.Keys() != 2 {
		t.Errorf("Keys = %d", s.Keys())
	}
	if _, ok := s.Value(3); ok {
		t.Errorf("Value(3) = ok")
	}
}

func TestNewNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	New(nil)
}

func TestQuickShippedIntervalsAlwaysValid(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(func(cacheID, key int) core.WidthPolicy {
			return core.NewController(params(), 1+rng.Float64()*10, rng)
		})
		s.SetInitial(0, 0)
		s.Subscribe(0, 0)
		v := 0.0
		for i := 0; i < int(steps); i++ {
			switch rng.Intn(3) {
			case 0, 1:
				v += rng.Float64()*20 - 10
				for _, r := range s.Set(0, v) {
					if !r.Interval.Valid(v) {
						return false
					}
				}
			case 2:
				r := s.Read(0, 0)
				if r.Value != v || !r.Interval.Valid(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
