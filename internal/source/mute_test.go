package source

import (
	"math"
	"math/rand"
	"testing"

	"apcache/internal/core"
)

// twinWidth is muteTwin's factory width; at its θ = 0.5 every
// query-initiated refresh shrinks, so a fresh pair's first Read ships half.
const twinWidth = 4

// muteTwin builds one of the two sources of the differential test. Both draw
// their policies' probabilistic adjustments from streams seeded alike, so any
// refresh decision a mute moved would show as a width that differs. Odd keys
// run the uncentered controller: Set treats it separately.
func muteTwin(seed int64) *Source {
	rng := rand.New(rand.NewSource(seed))
	prm := core.Params{Cvr: 1, Cqr: 4, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
	return New(func(cacheID, key int) core.WidthPolicy {
		if key%2 == 1 {
			return core.NewUncenteredController(prm, twinWidth, rng)
		}
		return core.NewController(prm, twinWidth, rng)
	})
}

// TestMuteDropsThePair is the differential property behind Mute: an honoured
// mute is Unsubscribe. The same seeded Set/Read/Subscribe/Mute schedule runs
// against a source that mutes and a plain one that is unsubscribed wherever
// the model expects a mute honoured. After every operation the two agree bit
// for bit on Set's result and on every pair's policy width and shipped
// interval; Mute is refused exactly when the pair is missing or its mark is
// above seen; Subscriptions() is the model's pair count; and the first Read
// or Subscribe of a dropped pair ships the factory's width, as for a pair
// never seen.
func TestMuteDropsThePair(t *testing.T) {
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
		dropped := map[pair]bool{} // pairs a mute removed, not asked for since
		var clock uint64
		honoured, reasked := 0, 0
		// fresh checks the refresh that re-installed a dropped pair.
		fresh := func(op int, p pair, r Refresh, want float64) {
			if dropped[p] {
				reasked++
				if r.OriginalWidth != want || math.Abs(r.Interval.Width()-want) > 1e-9 {
					t.Fatalf("seed %d op %d: dropped pair %v came back at width %g shipping %v, want the factory's %g", seed, op, p, r.OriginalWidth, r.Interval, want)
				}
				delete(dropped, p)
			}
		}
		for op := 0; op < 3000; op++ {
			p := pair{script.Intn(caches), script.Intn(keys)}
			switch roll := script.Intn(100); {
			case roll < 45:
				cur[p.k] += (script.Float64() - 0.5) * 30
				want := plain.Set(p.k, cur[p.k])
				got := muting.Set(p.k, cur[p.k])
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: Set(%d) returned %+v, want %+v", seed, op, p.k, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: Set(%d) returned %+v, want %+v", seed, op, p.k, got, want)
					}
				}
			case roll < 65:
				clock++
				a, b := plain.Read(p.c, p.k), muting.ReadMarked(p.c, p.k, clock)
				if a != b {
					t.Fatalf("seed %d op %d: Read %+v vs %+v", seed, op, a, b)
				}
				fresh(op, p, b, twinWidth/2)
				marks[p] = clock
			case roll < 75:
				clock++
				a, b := plain.Subscribe(p.c, p.k), muting.SubscribeMarked(p.c, p.k, clock)
				if a != b {
					t.Fatalf("seed %d op %d: Subscribe %+v vs %+v", seed, op, a, b)
				}
				fresh(op, p, b, twinWidth)
				marks[p] = clock
			default:
				// seen lands on both sides of the mark, and on it.
				seen := clock - min(clock, uint64(script.Intn(4)))
				mark, exists := marks[p]
				want := exists && mark <= seen
				held, _ := muting.PolicyFor(p.c, p.k)
				if pol, got := muting.Mute(p.c, p.k, seen); got != want || got && pol != held {
					t.Fatalf("seed %d op %d: Mute(%v, seen %d) = %v with mark %d (exists %v), returning the pair's policy %v", seed, op, p, seen, got, mark, exists, pol == held)
				}
				if want {
					plain.Unsubscribe(p.c, p.k)
					delete(marks, p)
					dropped[p] = true
					honoured++
				}
			}
			for c := 0; c < caches; c++ {
				for k := 0; k < keys; k++ {
					pa, okA := plain.PolicyFor(c, k)
					pb, okB := muting.PolicyFor(c, k)
					if _, want := marks[pair{c, k}]; okA != want || okB != want {
						t.Fatalf("seed %d op %d: pair (%d,%d) exists %v on the plain source and %v on the muting one, model says %v", seed, op, c, k, okA, okB, want)
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
			if n := muting.Subscriptions(); n != len(marks) {
				t.Fatalf("seed %d op %d: Subscriptions() = %d, model says %d", seed, op, n, len(marks))
			}
		}
		if honoured == 0 || reasked == 0 {
			t.Fatalf("seed %d: %d mutes honoured, %d dropped pairs asked for again; the schedule exercised nothing", seed, honoured, reasked)
		}
	}
}
