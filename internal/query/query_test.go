package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"apcache/internal/interval"
)

// fixture builds a Lookup over a static map and a Fetch that returns true
// values while recording fetches.
type fixture struct {
	cached  map[int]interval.Interval
	exact   map[int]float64
	fetched []int
}

func (f *fixture) get(key int) (interval.Interval, bool) {
	iv, ok := f.cached[key]
	return iv, ok
}

func (f *fixture) fetch(key int) float64 {
	f.fetched = append(f.fetched, key)
	return f.exact[key]
}

func TestSumAnswerableFromCache(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 1, Hi: 3},
			1: {Lo: 10, Hi: 12},
		},
		exact: map[int]float64{0: 2, 1: 11},
	}
	q := Query{Kind: Sum, Keys: []int{0, 1}, Delta: 5}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 0 {
		t.Fatalf("refreshed %v, want none (width 4 <= delta 5)", ans.Refreshed)
	}
	if ans.Result.Lo != 11 || ans.Result.Hi != 15 {
		t.Errorf("result %v, want [11, 15]", ans.Result)
	}
	if ans.Estimate() != 13 {
		t.Errorf("estimate %g, want 13", ans.Estimate())
	}
}

func TestSumRefreshesWidestFirst(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 0, Hi: 8},  // width 8
			1: {Lo: 0, Hi: 2},  // width 2
			2: {Lo: 0, Hi: 16}, // width 16
		},
		exact: map[int]float64{0: 4, 1: 1, 2: 8},
	}
	// Total width 26; delta 10 requires dropping to <= 10: refresh key 2
	// (residual 10 <= 10). Widest-first means exactly one fetch.
	q := Query{Kind: Sum, Keys: []int{0, 1, 2}, Delta: 10}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 1 || ans.Refreshed[0] != 2 {
		t.Fatalf("refreshed %v, want [2]", ans.Refreshed)
	}
	if got := ans.Result.Width(); got > 10 {
		t.Errorf("result width %g > delta", got)
	}
	// Result must contain the true sum 4+1+8 = 13.
	if !ans.Result.Valid(13) {
		t.Errorf("result %v does not contain true sum 13", ans.Result)
	}
}

func TestSumExactConstraintFetchesEverything(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 0, Hi: 1},
			1: {Lo: 5, Hi: 6},
		},
		exact: map[int]float64{0: 0.5, 1: 5.5},
	}
	q := Query{Kind: Sum, Keys: []int{0, 1}, Delta: 0}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 2 {
		t.Fatalf("refreshed %v, want both keys", ans.Refreshed)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 6 {
		t.Errorf("result %v, want exact [6, 6]", ans.Result)
	}
}

func TestSumZeroWidthEntriesNeedNoFetch(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: interval.Exact(3),
			1: interval.Exact(4),
		},
		exact: map[int]float64{0: 3, 1: 4},
	}
	q := Query{Kind: Sum, Keys: []int{0, 1}, Delta: 0}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 0 {
		t.Fatalf("exact cache entries still fetched: %v", ans.Refreshed)
	}
	if ans.Result.Lo != 7 {
		t.Errorf("result %v, want [7, 7]", ans.Result)
	}
}

func TestSumUncachedKeyTreatedAsUnbounded(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{0: {Lo: 1, Hi: 2}},
		exact:  map[int]float64{0: 1.5, 1: 100},
	}
	q := Query{Kind: Sum, Keys: []int{0, 1}, Delta: 50}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 1 || ans.Refreshed[0] != 1 {
		t.Fatalf("refreshed %v, want uncached key 1 only", ans.Refreshed)
	}
	if !ans.Result.Valid(101.5) {
		t.Errorf("result %v missing true sum 101.5", ans.Result)
	}
}

func TestAvgScalesConstraint(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 0, Hi: 10},
			1: {Lo: 0, Hi: 10},
		},
		exact: map[int]float64{0: 5, 1: 5},
	}
	// AVG width = (10+10)/2 = 10; delta 10 is satisfiable from cache.
	q := Query{Kind: Avg, Keys: []int{0, 1}, Delta: 10}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 0 {
		t.Fatalf("AVG fetched %v, want none", ans.Refreshed)
	}
	if ans.Result.Lo != 0 || ans.Result.Hi != 10 {
		t.Errorf("result %v, want [0, 10]", ans.Result)
	}
	// delta 5 forces exactly one refresh: initial AVG width 10 > 5, and one
	// fetch leaves residual 10/2 = 5 <= 5.
	f2 := &fixture{cached: map[int]interval.Interval{
		0: {Lo: 0, Hi: 10},
		1: {Lo: 0, Hi: 10},
	}, exact: map[int]float64{0: 5, 1: 5}}
	q.Delta = 5
	ans = Execute(q, f2.get, f2.fetch)
	if len(ans.Refreshed) != 1 {
		t.Errorf("AVG delta=5 fetched %v, want exactly 1", ans.Refreshed)
	}
}

func TestMaxAnswerableFromCache(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 10, Hi: 12}, // dominates
			1: {Lo: 0, Hi: 2},
		},
		exact: map[int]float64{0: 11, 1: 1},
	}
	q := Query{Kind: Max, Keys: []int{0, 1}, Delta: 2}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 0 {
		t.Fatalf("refreshed %v, want none", ans.Refreshed)
	}
	if ans.Result.Lo != 10 || ans.Result.Hi != 12 {
		t.Errorf("result %v, want [10, 12]", ans.Result)
	}
}

func TestMaxCandidateElimination(t *testing.T) {
	// Key 1's interval [0,2] lies entirely below key 0's lower bound 10,
	// so an exact MAX answer needs only key 0 fetched (Section 4.4: for
	// MAX, approximate values are useful even when exact precision is
	// required).
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 10, Hi: 14},
			1: {Lo: 0, Hi: 2},
		},
		exact: map[int]float64{0: 12, 1: 1},
	}
	q := Query{Kind: Max, Keys: []int{0, 1}, Delta: 0}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 1 || ans.Refreshed[0] != 0 {
		t.Fatalf("refreshed %v, want [0] only (candidate elimination)", ans.Refreshed)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 12 {
		t.Errorf("result %v, want exact [12, 12]", ans.Result)
	}
}

func TestMaxOverlappingCandidates(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 5, Hi: 15},
			1: {Lo: 8, Hi: 12},
			2: {Lo: 0, Hi: 1},
		},
		exact: map[int]float64{0: 7, 1: 11, 2: 0.5},
	}
	q := Query{Kind: Max, Keys: []int{0, 1, 2}, Delta: 0}
	ans := Execute(q, f.get, f.fetch)
	// True max is 11. Key 2 must never be fetched.
	for _, k := range ans.Refreshed {
		if k == 2 {
			t.Fatalf("fetched dominated key 2")
		}
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 11 {
		t.Errorf("result %v, want exact [11, 11]", ans.Result)
	}
}

func TestMinMirrorsMax(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 10, Hi: 14}, // dominated for MIN
			1: {Lo: 0, Hi: 4},
		},
		exact: map[int]float64{0: 12, 1: 2},
	}
	q := Query{Kind: Min, Keys: []int{0, 1}, Delta: 0}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 1 || ans.Refreshed[0] != 1 {
		t.Fatalf("refreshed %v, want [1] only", ans.Refreshed)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 2 {
		t.Errorf("result %v, want exact [2, 2]", ans.Result)
	}
}

func TestMinAnswerableFromCache(t *testing.T) {
	f := &fixture{
		cached: map[int]interval.Interval{
			0: {Lo: 1, Hi: 2},
			1: {Lo: 10, Hi: 30},
		},
		exact: map[int]float64{0: 1.5, 1: 20},
	}
	q := Query{Kind: Min, Keys: []int{0, 1}, Delta: 1}
	ans := Execute(q, f.get, f.fetch)
	if len(ans.Refreshed) != 0 {
		t.Fatalf("refreshed %v, want none", ans.Refreshed)
	}
	if ans.Result.Lo != 1 || ans.Result.Hi != 2 {
		t.Errorf("result %v, want [1, 2]", ans.Result)
	}
}

func TestExecutePanics(t *testing.T) {
	f := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
	cases := []func(){
		func() { Execute(Query{Kind: Sum}, f.get, f.fetch) },
		func() {
			Execute(Query{Kind: AggKind(9), Keys: []int{0}}, f.get, f.fetch)
		},
		func() { Execute(Query{Kind: Sum, Keys: []int{0}}, nil, f.fetch) },
		func() { Execute(Query{Kind: Sum, Keys: []int{0}}, f.get, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// buildRandom creates a random fixture with nKeys entries whose intervals
// genuinely contain the exact values.
func buildRandom(rng *rand.Rand, nKeys int) *fixture {
	f := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
	for k := 0; k < nKeys; k++ {
		v := rng.Float64()*200 - 100
		f.exact[k] = v
		switch rng.Intn(4) {
		case 0: // exact copy
			f.cached[k] = interval.Exact(v)
		case 1, 2: // proper interval containing v
			below := rng.Float64() * 50
			above := rng.Float64() * 50
			f.cached[k] = interval.Interval{Lo: v - below, Hi: v + above}
		case 3: // uncached
		}
	}
	return f
}

func TestQuickSumSoundAndPrecise(t *testing.T) {
	f := func(seed int64, nRaw, deltaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 1
		fx := buildRandom(rng, n)
		delta := float64(deltaRaw)
		keys := make([]int, n)
		var truth float64
		for k := 0; k < n; k++ {
			keys[k] = k
			truth += fx.exact[k]
		}
		ans := Execute(Query{Kind: Sum, Keys: keys, Delta: delta}, fx.get, fx.fetch)
		// Soundness: the result contains the true sum (allow float slack).
		if !ans.Result.Valid(truth) && math.Abs(truth-ans.Result.Clamp(truth)) > 1e-9 {
			return false
		}
		// Precision: the constraint is met.
		return ans.Result.Width() <= delta+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxSoundAndPrecise(t *testing.T) {
	f := func(seed int64, nRaw, deltaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 1
		fx := buildRandom(rng, n)
		delta := float64(deltaRaw)
		keys := make([]int, n)
		truth := math.Inf(-1)
		for k := 0; k < n; k++ {
			keys[k] = k
			truth = math.Max(truth, fx.exact[k])
		}
		ans := Execute(Query{Kind: Max, Keys: keys, Delta: delta}, fx.get, fx.fetch)
		if !ans.Result.Valid(truth) && math.Abs(truth-ans.Result.Clamp(truth)) > 1e-9 {
			return false
		}
		return ans.Result.Width() <= delta+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinSoundAndPrecise(t *testing.T) {
	f := func(seed int64, nRaw, deltaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 1
		fx := buildRandom(rng, n)
		delta := float64(deltaRaw)
		keys := make([]int, n)
		truth := math.Inf(1)
		for k := 0; k < n; k++ {
			keys[k] = k
			truth = math.Min(truth, fx.exact[k])
		}
		ans := Execute(Query{Kind: Min, Keys: keys, Delta: delta}, fx.get, fx.fetch)
		if !ans.Result.Valid(truth) && math.Abs(truth-ans.Result.Clamp(truth)) > 1e-9 {
			return false
		}
		return ans.Result.Width() <= delta+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNoDuplicateFetches(t *testing.T) {
	f := func(seed int64, nRaw uint8, kindRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 1
		fx := buildRandom(rng, n)
		kinds := []AggKind{Sum, Max, Min, Avg}
		kind := kinds[int(kindRaw)%len(kinds)]
		keys := make([]int, n)
		for k := 0; k < n; k++ {
			keys[k] = k
		}
		Execute(Query{Kind: kind, Keys: keys, Delta: 0}, fx.get, fx.fetch)
		seen := map[int]bool{}
		for _, k := range fx.fetched {
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// batchFetch adapts the fixture to BatchFetch, recording each round's size.
func (f *fixture) batchFetch(rounds *[][]int) BatchFetch {
	return func(keys []int) []float64 {
		*rounds = append(*rounds, append([]int(nil), keys...))
		out := make([]float64, len(keys))
		for i, k := range keys {
			f.fetched = append(f.fetched, k)
			out[i] = f.exact[k]
		}
		return out
	}
}

func TestExecuteBatchSumSingleRound(t *testing.T) {
	// Five keys all needing refresh: the whole set must arrive in ONE
	// BatchFetch call, widest first.
	f := &fixture{
		cached: map[int]interval.Interval{},
		exact:  map[int]float64{0: 1, 1: 2, 2: 3, 3: 4, 4: 5},
	}
	var rounds [][]int
	q := Query{Kind: Sum, Keys: []int{0, 1, 2, 3, 4}, Delta: 0}
	ans := ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), DefaultRamp)
	if len(rounds) != 1 || len(rounds[0]) != 5 {
		t.Fatalf("rounds %v, want one round of 5 keys", rounds)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 15 {
		t.Errorf("result %v, want [15, 15]", ans.Result)
	}
}

func TestExecuteBatchSumMatchesExecute(t *testing.T) {
	// Randomized equivalence: SUM/AVG batch execution must produce the same
	// answer and the same refresh set (in the same order) as the sequential
	// path — the refresh set is decided upfront either way.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(10) + 1
		f1 := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
		f2 := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
		keys := make([]int, n)
		for k := 0; k < n; k++ {
			keys[k] = k
			v := rng.Float64() * 100
			f1.exact[k], f2.exact[k] = v, v
			if rng.Float64() < 0.8 {
				w := rng.Float64() * 20
				iv := interval.Interval{Lo: v - w*rng.Float64(), Hi: v + w}
				f1.cached[k], f2.cached[k] = iv, iv
			}
		}
		kind := Sum
		if trial%2 == 1 {
			kind = Avg
		}
		q := Query{Kind: kind, Keys: keys, Delta: rng.Float64() * 40}
		seq := Execute(q, f1.get, f1.fetch)
		var rounds [][]int
		bat := ExecuteBatchRamp(q, f2.get, f2.batchFetch(&rounds), DefaultRamp)
		if len(rounds) > 1 {
			t.Fatalf("trial %d: SUM/AVG used %d rounds", trial, len(rounds))
		}
		if seq.Result != bat.Result {
			t.Fatalf("trial %d: results differ: %v vs %v", trial, seq.Result, bat.Result)
		}
		if len(seq.Refreshed) != len(bat.Refreshed) {
			t.Fatalf("trial %d: refresh sets differ: %v vs %v", trial, seq.Refreshed, bat.Refreshed)
		}
		for i := range seq.Refreshed {
			if seq.Refreshed[i] != bat.Refreshed[i] {
				t.Fatalf("trial %d: refresh order differs: %v vs %v", trial, seq.Refreshed, bat.Refreshed)
			}
		}
	}
}

func TestExecuteBatchMaxLogRounds(t *testing.T) {
	// MAX over K uncached keys with an exact constraint: the geometric ramp
	// must finish in O(log K) BatchFetch rounds, and the answer must still
	// be sound and exact.
	const K = 64
	f := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
	keys := make([]int, K)
	for k := 0; k < K; k++ {
		keys[k] = k
		f.exact[k] = float64(k * 3)
	}
	var rounds [][]int
	q := Query{Kind: Max, Keys: keys, Delta: 0}
	ans := ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), DefaultRamp)
	if !ans.Result.IsExact() || ans.Result.Lo != float64((K-1)*3) {
		t.Fatalf("result %v, want exact %d", ans.Result, (K-1)*3)
	}
	// 1+2+4+... covers 64 keys within 7 rounds.
	if len(rounds) > 7 {
		t.Errorf("MAX over %d keys took %d rounds: %v", K, len(rounds), rounds)
	}
}

func TestExecuteBatchMaxSoundAndPrecise(t *testing.T) {
	// Randomized soundness: batched MAX/MIN answers must bound the truth and
	// meet the constraint, and may over-fetch only against the candidate
	// set (never fetch an interval wholly below the collective lower bound
	// at its round start — checked indirectly via soundness + width here).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12) + 1
		f := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
		keys := make([]int, n)
		truthMax, truthMin := math.Inf(-1), math.Inf(1)
		for k := 0; k < n; k++ {
			keys[k] = k
			v := rng.NormFloat64() * 50
			f.exact[k] = v
			truthMax = math.Max(truthMax, v)
			truthMin = math.Min(truthMin, v)
			if rng.Float64() < 0.7 {
				wLo, wHi := rng.Float64()*30, rng.Float64()*30
				f.cached[k] = interval.Interval{Lo: v - wLo, Hi: v + wHi}
			}
		}
		kind, truth := Max, truthMax
		if trial%2 == 1 {
			kind, truth = Min, truthMin
		}
		delta := rng.Float64() * 25
		var rounds [][]int
		ans := ExecuteBatchRamp(Query{Kind: kind, Keys: keys, Delta: delta}, f.get, f.batchFetch(&rounds), DefaultRamp)
		if !ans.Result.Valid(truth) {
			t.Fatalf("trial %d: %v answer %v excludes truth %g", trial, kind, ans.Result, truth)
		}
		if ans.Result.Width() > delta {
			t.Fatalf("trial %d: width %g > delta %g", trial, ans.Result.Width(), delta)
		}
		seen := map[int]bool{}
		for _, k := range ans.Refreshed {
			if seen[k] {
				t.Fatalf("trial %d: key %d fetched twice", trial, k)
			}
			seen[k] = true
		}
	}
}

// rampFixture builds n keys whose intervals all straddle the collective
// lower bound, so an exact MAX query must fetch every key and the round
// structure depends only on the ramp factor.
func rampFixture(n int) *fixture {
	f := &fixture{cached: map[int]interval.Interval{}, exact: map[int]float64{}}
	for k := 0; k < n; k++ {
		f.cached[k] = interval.Interval{Lo: 0, Hi: 100 + float64(k)}
		f.exact[k] = float64(k)
	}
	return f
}

func TestExecuteBatchRampRoundSizes(t *testing.T) {
	cases := []struct {
		ramp   float64
		rounds []int // expected per-round fetch counts over 8 keys
	}{
		{1, []int{1, 1, 1, 1, 1, 1, 1, 1}}, // paper-minimal elimination
		{2, []int{1, 2, 4, 1}},             // default geometric doubling
		{4, []int{1, 4, 3}},
		{1.5, []int{1, 2, 3, 2}}, // ceil(1.5^r): 1, 2, 3, ...
	}
	for _, c := range cases {
		const n = 8
		f := rampFixture(n)
		keys := make([]int, n)
		for k := range keys {
			keys[k] = k
		}
		var rounds [][]int
		q := Query{Kind: Max, Keys: keys, Delta: 0}
		ans := ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), c.ramp)
		if ans.Result.Lo != n-1 || ans.Result.Hi != n-1 {
			t.Errorf("ramp %g: result %v, want exact max %d", c.ramp, ans.Result, n-1)
		}
		got := make([]int, len(rounds))
		for i, r := range rounds {
			got[i] = len(r)
		}
		if len(got) != len(c.rounds) {
			t.Errorf("ramp %g: %d rounds %v, want %v", c.ramp, len(got), got, c.rounds)
			continue
		}
		for i := range got {
			if got[i] != c.rounds[i] {
				t.Errorf("ramp %g: round sizes %v, want %v", c.ramp, got, c.rounds)
				break
			}
		}
	}
}

func TestExecuteBatchUsesDefaultRamp(t *testing.T) {
	// DefaultRamp is the ramp the networked client runs and the benchmark's
	// layer replays: pin the constant by the rounds it produces, 1, 8, 64
	// and the remainder.
	const n = 80
	f := rampFixture(n)
	keys := make([]int, n)
	for k := range keys {
		keys[k] = k
	}
	q := Query{Kind: Max, Keys: keys, Delta: 0}
	var rounds [][]int
	ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), DefaultRamp)
	var got []int
	for _, r := range rounds {
		got = append(got, len(r))
	}
	if want := []int{1, 8, 64, 7}; !slices.Equal(got, want) {
		t.Fatalf("DefaultRamp round sizes %v, want %v", got, want)
	}
}

func TestExecuteBatchRampRejectsSubUnity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("ramp factor below 1 did not panic")
		}
	}()
	f := rampFixture(2)
	var rounds [][]int
	q := Query{Kind: Max, Keys: []int{0, 1}, Delta: 0}
	ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), 0.5)
}

func TestExecuteBatchRampHugeFactorClamps(t *testing.T) {
	// A huge (but finite) factor must clamp to the key-set size instead of
	// overflowing the int round size: round 1 fetches 1, round 2 the rest.
	const n = 8
	f := rampFixture(n)
	keys := make([]int, n)
	for k := range keys {
		keys[k] = k
	}
	var rounds [][]int
	q := Query{Kind: Max, Keys: keys, Delta: 0}
	ans := ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), 1e18)
	if ans.Result.Lo != n-1 {
		t.Errorf("result %v, want exact max %d", ans.Result, n-1)
	}
	if len(rounds) != 2 || len(rounds[0]) != 1 || len(rounds[1]) != n-1 {
		t.Errorf("round sizes %v, want [1 %d]", rounds, n-1)
	}
}

func TestExecuteBatchRampRejectsInf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("+Inf ramp factor did not panic")
		}
	}()
	f := rampFixture(2)
	var rounds [][]int
	q := Query{Kind: Max, Keys: []int{0, 1}, Delta: 0}
	ExecuteBatchRamp(q, f.get, f.batchFetch(&rounds), math.Inf(1))
}
