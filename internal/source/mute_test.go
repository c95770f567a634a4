package source

import (
	"math"
	"math/rand"
	"testing"

	"apcache/internal/core"
)

// muteTwin builds one of the two sources of the differential test. Both draw
// their policies' probabilistic adjustments from streams seeded alike, so any
// refresh decision a mute moved would show as a width that differs. Odd keys
// run the uncentered controller: Set treats it separately.
func muteTwin(seed int64) *Source {
	rng := rand.New(rand.NewSource(seed))
	prm := core.Params{Cvr: 1, Cqr: 4, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
	return New(func(cacheID, key int) core.WidthPolicy {
		if key%2 == 1 {
			return core.NewUncenteredController(prm, 4, rng)
		}
		return core.NewController(prm, 4, rng)
	})
}

// TestMuteIsInvisibleToThePolicy is the differential property behind muted
// subscriptions: the same seeded Set/Read/Subscribe schedule runs against a
// source that is never muted and one whose pairs are muted at random. After
// every operation the two agree bit for bit on every pair's policy width and
// shipped interval; a muted pair never appears in Set's result and a live one
// always does; Mute is refused exactly when the pair is missing or its mark
// is above seen.
func TestMuteIsInvisibleToThePolicy(t *testing.T) {
	const caches, keys = 3, 8
	type pair struct{ c, k int }
	for seed := int64(1); seed <= 30; seed++ {
		plain, muting := muteTwin(seed), muteTwin(seed)
		script := rand.New(rand.NewSource(seed * 7919))
		cur := make([]float64, keys)
		for k := range cur {
			cur[k] = float64(k * 100)
			plain.SetInitial(k, cur[k])
			muting.SetInitial(k, cur[k])
		}
		marks := map[pair]uint64{} // the model: last mark per existing pair
		muted := map[pair]bool{}
		var clock uint64
		honoured := 0
		for op := 0; op < 3000; op++ {
			p := pair{script.Intn(caches), script.Intn(keys)}
			switch roll := script.Intn(100); {
			case roll < 45:
				cur[p.k] += (script.Float64() - 0.5) * 30
				want := plain.Set(p.k, cur[p.k])
				got := muting.Set(p.k, cur[p.k])
				i := 0
				for _, r := range want {
					if muted[pair{r.CacheID, r.Key}] {
						continue
					}
					if i >= len(got) || got[i] != r {
						t.Fatalf("seed %d op %d: Set(%d) on the muting source returned %+v, want the live subset of %+v", seed, op, p.k, got, want)
					}
					i++
				}
				if i != len(got) {
					t.Fatalf("seed %d op %d: Set(%d) returned %d refreshes, %d of them for live pairs: %+v", seed, op, p.k, len(got), i, got)
				}
			case roll < 65:
				clock++
				if a, b := plain.Read(p.c, p.k), muting.ReadMarked(p.c, p.k, clock); a != b {
					t.Fatalf("seed %d op %d: Read %+v vs %+v", seed, op, a, b)
				}
				marks[p], muted[p] = clock, false
			case roll < 75:
				clock++
				if a, b := plain.Subscribe(p.c, p.k), muting.SubscribeMarked(p.c, p.k, clock); a != b {
					t.Fatalf("seed %d op %d: Subscribe %+v vs %+v", seed, op, a, b)
				}
				marks[p], muted[p] = clock, false
			default:
				// seen lands on both sides of the mark, and on it.
				seen := clock - min(clock, uint64(script.Intn(4)))
				mark, exists := marks[p]
				want := exists && mark <= seen
				if got := muting.Mute(p.c, p.k, seen); got != want {
					t.Fatalf("seed %d op %d: Mute(%v, seen %d) = %v with mark %d (exists %v)", seed, op, p, seen, got, mark, exists)
				}
				if want {
					muted[p] = true
					honoured++
				}
			}
			nMuted := 0
			for c := 0; c < caches; c++ {
				for k := 0; k < keys; k++ {
					if muted[pair{c, k}] {
						nMuted++
					}
					pa, okA := plain.PolicyFor(c, k)
					pb, okB := muting.PolicyFor(c, k)
					if okA != okB {
						t.Fatalf("seed %d op %d: pair (%d,%d) exists on one source only", seed, op, c, k)
					}
					if !okA {
						continue
					}
					if wa, wb := pa.Width(), pb.Width(); math.Float64bits(wa) != math.Float64bits(wb) {
						t.Fatalf("seed %d op %d: pair (%d,%d) width %g vs %g", seed, op, c, k, wa, wb)
					}
					ia, _ := plain.IntervalFor(c, k)
					ib, _ := muting.IntervalFor(c, k)
					if ia != ib {
						t.Fatalf("seed %d op %d: pair (%d,%d) interval %v vs %v", seed, op, c, k, ia, ib)
					}
					if !ib.Valid(cur[k]) {
						t.Fatalf("seed %d op %d: pair (%d,%d) holds %v, value %g", seed, op, c, k, ib, cur[k])
					}
				}
			}
			if muting.Muted() != nMuted {
				t.Fatalf("seed %d op %d: Muted() = %d, model says %d", seed, op, muting.Muted(), nMuted)
			}
		}
		if honoured == 0 {
			t.Fatalf("seed %d: the schedule never muted anything", seed)
		}
	}
}

// TestMutedGaugeSurvivesTeardown: removing a muted subscription, one pair or
// a whole cache at a time, takes it out of the gauge.
func TestMutedGaugeSurvivesTeardown(t *testing.T) {
	s := newTestSource(10)
	for k := 0; k < 3; k++ {
		s.SetInitial(k, 0)
		s.Subscribe(1, k)
		s.Subscribe(2, k)
		if !s.Mute(1, k, 0) {
			t.Fatalf("Mute(1, %d) refused", k)
		}
	}
	if !s.Mute(1, 0, 0) || s.Muted() != 3 {
		t.Fatalf("re-muting a muted pair: Muted() = %d, want 3", s.Muted())
	}
	s.Unsubscribe(1, 0)
	if s.Muted() != 2 {
		t.Errorf("after Unsubscribe of a muted pair Muted() = %d, want 2", s.Muted())
	}
	s.UnsubscribeCache(1)
	if s.Muted() != 0 || s.Subscriptions() != 3 {
		t.Errorf("after UnsubscribeCache Muted() = %d, Subscriptions() = %d; want 0, 3", s.Muted(), s.Subscriptions())
	}
	if s.Mute(1, 1, 99) {
		t.Errorf("Mute of a pair that no longer exists succeeded")
	}
}
