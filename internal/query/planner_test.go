package query

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"apcache/internal/interval"
	"apcache/internal/workload"
)

// parentExtreme is the batched MAX/MIN rule as it stood before the
// certain-first rounds, kept as the reference the planner property test
// compares round and fetch counts against: round r fetches the top
// ceil(ramp^(r-1)) candidates by upper endpoint, a miss is just one more
// candidate, and a candidate is anything not wholly below the lower bound.
func parentExtreme(keys []int, delta float64, minimize bool, get Lookup, fetch BatchFetch, ramp float64) Answer {
	entries := load(keys, get)
	if minimize {
		for i := range entries {
			entries[i].iv = negate(entries[i].iv)
		}
	}
	var refreshed []int
	batchSize := 1
	for {
		bound := entries[0].iv
		for _, e := range entries[1:] {
			bound = bound.Max(e.iv)
		}
		var cands []int
		for i, e := range entries {
			if e.iv.IsExact() || e.iv.Hi < bound.Lo {
				continue
			}
			cands = append(cands, i)
		}
		if bound.Width() <= delta || len(cands) == 0 {
			if minimize {
				bound = negate(bound)
			}
			return Answer{Result: bound, Refreshed: refreshed}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			ia, ib := entries[cands[a]].iv, entries[cands[b]].iv
			if ia.Hi != ib.Hi {
				return ia.Hi > ib.Hi
			}
			return widthRank(ia) > widthRank(ib)
		})
		n := batchSize
		if n > len(cands) {
			n = len(cands)
		}
		batchSize = int(math.Min(math.Ceil(float64(batchSize)*ramp), float64(len(keys))))
		round := make([]int, n)
		for j, i := range cands[:n] {
			round[j] = entries[i].key
		}
		vals := fetch(round)
		refreshed = append(refreshed, round...)
		for j, i := range cands[:n] {
			v := vals[j]
			if minimize {
				v = -v
			}
			entries[i].iv = interval.Exact(v)
		}
	}
}

// plannerCase is one random cache: overlapping bounded intervals around the
// true values, with a share of keys uncached.
type plannerCase struct {
	keys   []int
	cached map[int]interval.Interval
	exact  map[int]float64
	truth  float64 // the true extreme
	q      workload.Query
}

func newPlannerCase(seed int64) *plannerCase {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(16) + 1
	c := &plannerCase{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
	minimize := seed%2 == 1
	c.truth = math.Inf(-1)
	if minimize {
		c.truth = math.Inf(1)
	}
	missP := []float64{0.1, 0.3, 0.6}[rng.Intn(3)]
	for k := 0; k < n; k++ {
		c.keys = append(c.keys, k)
		v := rng.NormFloat64() * 20
		c.exact[k] = v
		if minimize {
			c.truth = math.Min(c.truth, v)
		} else {
			c.truth = math.Max(c.truth, v)
		}
		if rng.Float64() >= missP {
			c.cached[k] = interval.Interval{Lo: v - rng.Float64()*40, Hi: v + rng.Float64()*40}
		}
	}
	c.q = workload.Query{Kind: workload.Max, Keys: c.keys, Delta: []float64{0, 3, 50}[rng.Intn(3)]}
	if minimize {
		c.q.Kind = workload.Min
	}
	return c
}

func (c *plannerCase) get(key int) (interval.Interval, bool) {
	iv, ok := c.cached[key]
	return iv, ok
}

// recorder is a BatchFetch that keeps each round and checks, as the round
// arrives, that none of its keys was already provably unnecessary: for MAX,
// upper endpoint within Delta of the greatest lower endpoint known so far
// (mirrored for MIN).
type recorder struct {
	c      *plannerCase
	known  map[int]interval.Interval // cached intervals, then exact values as fetched
	rounds [][]int
	waste  []int // keys fetched although provably unnecessary
}

func (c *plannerCase) recorder() *recorder {
	r := &recorder{c: c, known: map[int]interval.Interval{}}
	for _, k := range c.keys {
		r.known[k] = interval.Unbounded()
		if iv, ok := c.cached[k]; ok {
			r.known[k] = iv
		}
	}
	return r
}

func (r *recorder) fetch(keys []int) []float64 {
	minimize := r.c.q.Kind == workload.Min
	edge := math.Inf(-1) // greatest Lo (MAX) or, negated, least Hi (MIN)
	for _, iv := range r.known {
		if minimize {
			iv = negate(iv)
		}
		edge = math.Max(edge, iv.Lo)
	}
	r.rounds = append(r.rounds, append([]int(nil), keys...))
	out := make([]float64, len(keys))
	for i, k := range keys {
		iv := r.known[k]
		if minimize {
			iv = negate(iv)
		}
		if iv.Hi-edge <= r.c.q.Delta {
			r.waste = append(r.waste, k)
		}
		out[i] = r.c.exact[k]
	}
	for i, k := range keys {
		r.known[k] = interval.Exact(out[i])
	}
	return out
}

func (r *recorder) fetched() int {
	n := 0
	for _, round := range r.rounds {
		n += len(round)
	}
	return n
}

func sortedCopy(keys []int) []int {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// TestPlannerProperties pins what the MAX/MIN planner promises over random
// caches with misses: sound and precise answers at every ramp; a batched
// run's first round carries every miss; no round carries a key already known
// unnecessary; ramp 1 refreshes exactly the sequential set; and against the
// previous rule no query needs more rounds and the seed set as a whole
// fetches no more keys.
func TestPlannerProperties(t *testing.T) {
	seeds := 10000
	if testing.Short() {
		seeds = 1000
	}
	ramps := []float64{0, 1, 2, 8}
	fetchedNew, fetchedParent := map[float64]int{}, map[float64]int{}
	roundsNew, roundsParent := map[float64]int{}, map[float64]int{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := newPlannerCase(seed)
		var sequential []int
		for _, ramp := range ramps {
			rec := c.recorder()
			var ans Answer
			if ramp == 0 {
				ans = Execute(c.q, c.get, func(k int) float64 { return rec.fetch([]int{k})[0] })
				sequential = sortedCopy(ans.Refreshed)
			} else {
				ans = ExecuteBatchRamp(c.q, c.get, rec.fetch, ramp)
			}
			if !ans.Result.Valid(c.truth) {
				t.Fatalf("seed %d ramp %g: %v answer %v excludes the true extreme %g", seed, ramp, c.q.Kind, ans.Result, c.truth)
			}
			if ans.Result.Width() > c.q.Delta {
				t.Fatalf("seed %d ramp %g: answer width %g > delta %g", seed, ramp, ans.Result.Width(), c.q.Delta)
			}
			if len(rec.waste) > 0 {
				t.Fatalf("seed %d ramp %g: fetched %v although already within delta of the bound (rounds %v)", seed, ramp, rec.waste, rec.rounds)
			}
			if ramp == 0 {
				continue
			}
			if misses := len(c.keys) - len(c.cached); misses > 0 {
				first := map[int]bool{}
				for _, k := range rec.rounds[0] {
					first[k] = true
				}
				for _, k := range c.keys {
					if _, ok := c.cached[k]; !ok && !first[k] {
						t.Fatalf("seed %d ramp %g: uncached key %d not in round 1 %v", seed, ramp, k, rec.rounds[0])
					}
				}
			}
			if ramp == 1 && !slices.Equal(sortedCopy(ans.Refreshed), sequential) {
				t.Fatalf("seed %d: ramp 1 refreshed %v, sequential %v", seed, sortedCopy(ans.Refreshed), sequential)
			}
			ref := c.recorder()
			want := parentExtreme(c.q.Keys, c.q.Delta, c.q.Kind == workload.Min, c.get, ref.fetch, ramp)
			if !want.Result.Valid(c.truth) || want.Result.Width() > c.q.Delta {
				t.Fatalf("seed %d ramp %g: reference rule answered %v for truth %g, delta %g", seed, ramp, want.Result, c.truth, c.q.Delta)
			}
			if len(rec.rounds) > len(ref.rounds) {
				t.Fatalf("seed %d ramp %g: %d rounds %v, the previous rule needed %d %v", seed, ramp, len(rec.rounds), rec.rounds, len(ref.rounds), ref.rounds)
			}
			fetchedNew[ramp] += rec.fetched()
			fetchedParent[ramp] += ref.fetched()
			roundsNew[ramp] += len(rec.rounds)
			roundsParent[ramp] += len(ref.rounds)
		}
	}
	for _, ramp := range ramps[1:] {
		t.Logf("ramp %g over %d seeds: %d keys in %d rounds, previous rule %d keys in %d rounds",
			ramp, seeds, fetchedNew[ramp], roundsNew[ramp], fetchedParent[ramp], roundsParent[ramp])
		if fetchedNew[ramp] > fetchedParent[ramp] {
			t.Errorf("ramp %g: fetched %d keys over the seed set, the previous rule %d", ramp, fetchedNew[ramp], fetchedParent[ramp])
		}
	}
}

// TestExtremeCandidateFilterRoundsLikeWidth: 0.30000000000000004 - 0.1 is
// one ulp over 0.2 while 0.1 + 0.2 rounds up to 0.30000000000000004, so a
// filter written as Hi <= Lo + delta would drop the one key that still holds
// the bound open and answer wider than delta.
func TestExtremeCandidateFilterRoundsLikeWidth(t *testing.T) {
	cached := map[int]interval.Interval{
		0: {Lo: 0.1, Hi: 0.2},
		1: {Lo: 0, Hi: 0.30000000000000004},
	}
	get := func(k int) (interval.Interval, bool) { iv, ok := cached[k]; return iv, ok }
	q := workload.Query{Kind: workload.Max, Keys: []int{0, 1}, Delta: 0.2}
	for _, ramp := range []float64{1, 2, 8} {
		ans := ExecuteBatchRamp(q, get, func(keys []int) []float64 { return make([]float64, len(keys)) }, ramp)
		if ans.Result.Width() > q.Delta {
			t.Fatalf("ramp %g: answer %v is wider than delta %g", ramp, ans.Result, q.Delta)
		}
	}
}

// sequentialExtreme is the paper's one-key-at-a-time MAX/MIN rule as Execute
// ran it while it had a code path of its own: each round one linear scan for
// the greatest upper endpoint among the non-exact entries (ties to the wider
// interval, then to the earlier key), one fetch. Kept as the reference
// TestSequentialIsRampOne holds the ramp-1 planner to.
func sequentialExtreme(keys []int, delta float64, minimize bool, get Lookup, fetch Fetch) Answer {
	entries := load(keys, get)
	if minimize {
		for i := range entries {
			entries[i].iv = negate(entries[i].iv)
		}
	}
	var refreshed []int
	for {
		bound := entries[0].iv
		for _, e := range entries[1:] {
			bound = bound.Max(e.iv)
		}
		best := -1
		for i, e := range entries {
			if e.iv.IsExact() {
				continue
			}
			if best == -1 || e.iv.Hi > entries[best].iv.Hi ||
				(e.iv.Hi == entries[best].iv.Hi && widthRank(e.iv) > widthRank(entries[best].iv)) {
				best = i
			}
		}
		if bound.Width() <= delta || best == -1 {
			if minimize {
				bound = negate(bound)
			}
			return Answer{Result: bound, Refreshed: refreshed}
		}
		v := fetch(entries[best].key)
		refreshed = append(refreshed, entries[best].key)
		if minimize {
			v = -v
		}
		entries[best].iv = interval.Exact(v)
	}
}

// TestSequentialIsRampOne is the proof that a sequential MAX/MIN code path
// would be a duplicate: over random caches — 1 to 12 keys, a fifth uncached,
// off-centre, exact and shared-endpoint intervals, delta from 0 to 2.5 —
// Execute, the batched planner at ramp 1 and the linear-scan reference return
// the same Answer, Result and Refreshed order both, and Execute hands its
// per-key Fetch the keys in that same order.
func TestSequentialIsRampOne(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < cases; n++ {
		keys := make([]int, rng.Intn(12)+1)
		cached, exact := map[int]interval.Interval{}, map[int]float64{}
		for k := range keys {
			keys[k] = k
			v := float64(rng.Intn(9)) / 2 // a small grid, so endpoints and values tie often
			exact[k] = v
			switch p := rng.Float64(); {
			case p < 0.2: // uncached
			case p < 0.3:
				cached[k] = interval.Exact(v)
			default:
				cached[k] = interval.Interval{Lo: v - float64(rng.Intn(5))/2, Hi: v + float64(rng.Intn(5))/2}
			}
		}
		q := workload.Query{Kind: workload.Max, Keys: keys, Delta: float64(rng.Intn(6)) / 2}
		if n%2 == 1 {
			q.Kind = workload.Min
		}
		get := func(k int) (interval.Interval, bool) { iv, ok := cached[k]; return iv, ok }
		var calls []int
		one := func(k int) float64 { calls = append(calls, k); return exact[k] }
		seq := Execute(q, get, one)
		ref := sequentialExtreme(keys, q.Delta, q.Kind == workload.Min, get, func(k int) float64 { return exact[k] })
		bat := ExecuteBatchRamp(q, get, func(ks []int) []float64 {
			out := make([]float64, len(ks))
			for i, k := range ks {
				out[i] = exact[k]
			}
			return out
		}, 1)
		if seq.Result != ref.Result || !slices.Equal(seq.Refreshed, ref.Refreshed) {
			t.Fatalf("case %d (%v, delta %g, cache %v): Execute %v %v, the linear scan %v %v",
				n, q.Kind, q.Delta, cached, seq.Result, seq.Refreshed, ref.Result, ref.Refreshed)
		}
		if bat.Result != ref.Result || !slices.Equal(bat.Refreshed, ref.Refreshed) {
			t.Fatalf("case %d (%v, delta %g, cache %v): ramp 1 %v %v, the linear scan %v %v",
				n, q.Kind, q.Delta, cached, bat.Result, bat.Refreshed, ref.Result, ref.Refreshed)
		}
		if !slices.Equal(calls, seq.Refreshed) {
			t.Fatalf("case %d: Execute fetched %v but reports %v", n, calls, seq.Refreshed)
		}
	}
}
