package cq

import (
	"math"
	"math/rand"
	"testing"

	"apcache/internal/interval"
)

func iv(lo, hi float64) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }

func TestSumAggregator(t *testing.T) {
	a := NewSum()
	a.Update(1, iv(0, 2), 1)
	a.Update(2, iv(10, 14), 12)
	if got := a.Result(); got != iv(10, 16) {
		t.Errorf("Result = %v, want [10,16]", got)
	}
	if got := a.Value(); got != 13 {
		t.Errorf("Value = %g, want 13", got)
	}
	// An update replaces the key's previous contribution.
	a.Update(1, iv(5, 6), 5.5)
	if got := a.Result(); got != iv(15, 20) {
		t.Errorf("Result after replace = %v, want [15,20]", got)
	}
	if got := a.Value(); got != 17.5 {
		t.Errorf("Value after replace = %g, want 17.5", got)
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d, want 2", a.Len())
	}
}

func TestAvgAggregator(t *testing.T) {
	a := NewAvg()
	a.Update(1, iv(0, 2), 1)
	a.Update(2, iv(2, 4), 3)
	if got := a.Result(); got != iv(1, 3) {
		t.Errorf("Result = %v, want [1,3]", got)
	}
	if got := a.Value(); got != 2 {
		t.Errorf("Value = %g, want 2", got)
	}
}

func TestSumUnboundedRebase(t *testing.T) {
	a := NewSum()
	a.Update(1, iv(0, math.Inf(1)), 1)
	a.Update(2, iv(1, 2), 1.5)
	if got := a.Result(); got.Lo != 1 || !math.IsInf(got.Hi, 1) {
		t.Errorf("Result with unbounded member = %v, want [1,+Inf]", got)
	}
	// The unbounded member leaving must not poison the sums with Inf-Inf.
	a.Update(1, iv(3, 4), 3.5)
	if got := a.Result(); got != iv(4, 6) {
		t.Errorf("Result after rebase = %v, want [4,6]", got)
	}
	if got := a.Value(); got != 5 {
		t.Errorf("Value after rebase = %g, want 5", got)
	}
}

func TestSumDriftRebase(t *testing.T) {
	a := NewSum()
	a.Update(0, iv(0, 1), 0.5)
	for i := 0; i < 3*rebaseEvery; i++ {
		a.Update(0, iv(float64(i), float64(i)+0.1), float64(i))
	}
	last := float64(3*rebaseEvery - 1)
	if got := a.Result(); math.Abs(got.Lo-last) > 1e-9 {
		t.Errorf("Result after churn = %v, want Lo %g", got, last)
	}
}

func TestExtremeAggregators(t *testing.T) {
	mx, mn := NewMax(), NewMin()
	for _, u := range []struct {
		k      int
		lo, hi float64
	}{{1, 0, 2}, {2, 5, 9}, {3, -4, -1}} {
		mx.Update(u.k, iv(u.lo, u.hi), (u.lo+u.hi)/2)
		mn.Update(u.k, iv(u.lo, u.hi), (u.lo+u.hi)/2)
	}
	if got := mx.Result(); got != iv(5, 9) {
		t.Errorf("Max Result = %v, want [5,9]", got)
	}
	if got := mn.Result(); got != iv(-4, -1) {
		t.Errorf("Min Result = %v, want [-4,-1]", got)
	}
	// Replacing the champion's contribution moves the winner.
	mx.Update(2, iv(-10, -8), -9)
	if got := mx.Result(); got != iv(0, 2) {
		t.Errorf("Max Result after demotion = %v, want [0,2]", got)
	}
	if got := mx.Value(); got != 1 {
		t.Errorf("Max Value = %g, want 1", got)
	}
}

func TestExtremeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Result of empty MAX did not panic")
		}
	}()
	NewMax().Result()
}

// TestTournamentRandomized cross-checks the winner tree against a linear
// scan over random upserts, including slot-count growth past powers of two.
func TestTournamentRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := maxTournament()
	ref := make([]float64, 0, 100)
	for i := 0; i < 5000; i++ {
		slot := rng.Intn(cap(ref))
		if slot >= len(ref) {
			slot = len(ref)
			ref = append(ref, 0)
		}
		s := rng.NormFloat64() * 100
		ref[slot] = s
		tr.update(slot, s)
		bestSlot, best := 0, math.Inf(-1)
		for j, v := range ref {
			if v > best {
				bestSlot, best = j, v
			}
		}
		if got := tr.best(); got != best {
			t.Fatalf("step %d: best = %g, want %g", i, got, best)
		}
		if got := tr.winner(); got != bestSlot {
			t.Fatalf("step %d: winner = %d, want %d", i, got, bestSlot)
		}
	}
}

// TestInitialTarget: SUM and AVG split only keyShare of the budget across
// their keys (the rest is the answer envelope's slack); MAX/MIN are not
// split at all.
func TestInitialTarget(t *testing.T) {
	if got := InitialTarget(Sum, 8, 4); got != keyShare*2 {
		t.Errorf("Sum target = %g, want %g", got, keyShare*2)
	}
	if got := InitialTarget(Avg, 8, 4); got != keyShare*8 {
		t.Errorf("Avg target = %g, want %g", got, keyShare*8)
	}
	for _, k := range []AggKind{Max, Min} {
		if got := InitialTarget(k, 8, 4); got != 8 {
			t.Errorf("%d target = %g, want 8", k, got)
		}
	}
}

func TestEngineRegisterExtremeSeedsMidChampion(t *testing.T) {
	// The champion sits in the middle of the key list, so folding the last
	// seed does not change the answer. The registration must still report
	// the champion, not a zero answer.
	e := NewEngine()
	spec := Spec{Owner: 1, QID: 3, Kind: Max, Delta: 2, Keys: []int{5, 6, 7}}
	up, _, _ := e.Register(spec, 50,
		[]interval.Interval{iv(1, 3), iv(8, 10), iv(4, 6)}, []float64{2, 9, 5})
	if up.Iv != iv(8, 10) || up.Value != 9 {
		t.Errorf("initial MAX answer = %v val %g, want [8,10] val 9", up.Iv, up.Value)
	}
}

func TestEngineRegisterObserveUnregister(t *testing.T) {
	e := NewEngine()
	spec := Spec{Owner: 1, QID: 7, Kind: Sum, Delta: 6, Keys: []int{10, 11, 12}}
	up, _, replaced := e.Register(spec, 100,
		[]interval.Interval{iv(0, 2), iv(1, 3), iv(2, 4)}, []float64{1, 2, 3})
	if replaced {
		t.Fatalf("fresh registration reported a replacement")
	}
	if up.Iv != iv(3, 9) || up.Value != 6 {
		t.Errorf("initial answer = %v val %g, want [3,9] val 6", up.Iv, up.Value)
	}
	if n := e.Queries(); n != 1 {
		t.Errorf("Queries = %d, want 1", n)
	}
	// A refresh that changes the answer emits; re-observing it does not.
	up, emit, _ := e.Observe(100, 10, iv(1, 3), 2, true)
	if !emit || up.Iv != iv(4, 10) || up.Value != 7 || up.Owner != 1 || up.QID != 7 {
		t.Errorf("Observe = %+v emit=%v, want [4,10] val 7 to owner 1 qid 7", up, emit)
	}
	if _, emit, _ := e.Observe(100, 10, iv(1, 3), 2, true); emit {
		t.Errorf("identical re-observe emitted")
	}
	// A refresh for a key the query does not aggregate is ignored.
	if _, emit, _ := e.Observe(100, 99, iv(100, 200), 150, true); emit {
		t.Errorf("non-member key emitted")
	}
	if got, _, _ := e.Answer(1, 7); got != iv(4, 10) {
		t.Errorf("non-member key moved the answer to %v", got)
	}
	// Refreshes for unregistered cache IDs are ignored.
	if _, emit, _ := e.Observe(999, 10, iv(0, 1), 0.5, true); emit {
		t.Errorf("unknown cacheID emitted")
	}
	d, ok := e.Unregister(1, 7)
	if !ok || d.CacheID != 100 || len(d.Keys) != 3 {
		t.Errorf("Unregister = %+v %v, want cacheID 100 with 3 keys", d, ok)
	}
	if _, ok := e.Unregister(1, 7); ok {
		t.Errorf("double Unregister succeeded")
	}
	if n := e.Queries(); n != 0 {
		t.Errorf("Queries after Unregister = %d, want 0", n)
	}
}

func TestEngineRegisterReplacesSameQID(t *testing.T) {
	e := NewEngine()
	seed := []interval.Interval{iv(0, 1)}
	_, _, _ = e.Register(Spec{Owner: 1, QID: 3, Kind: Sum, Delta: 1, Keys: []int{5}}, 50, seed, []float64{0.5})
	_, old, wasReplaced := e.Register(Spec{Owner: 1, QID: 3, Kind: Sum, Delta: 2, Keys: []int{6}}, 51, seed, []float64{0.5})
	if !wasReplaced || old.CacheID != 50 {
		t.Fatalf("replacement = %+v %v, want old cacheID 50", old, wasReplaced)
	}
	if n := e.Queries(); n != 1 {
		t.Errorf("Queries = %d, want 1", n)
	}
	ds := e.DropOwner(1)
	if len(ds) != 1 || ds[0].CacheID != 51 {
		t.Errorf("DropOwner = %+v, want the replacement's footprint", ds)
	}
}

// TestEngineResplitConvergence drives one key hot and checks that re-splits
// steer it a wide share of the budget, then flips the heat and checks the
// shares follow — the adaptivity property of the budget allocator.
func TestEngineResplitConvergence(t *testing.T) {
	e := NewEngine()
	const delta = 8.0
	spec := Spec{Owner: 1, QID: 1, Kind: Sum, Delta: delta, Keys: []int{0, 1, 2, 3}}
	seeds := make([]interval.Interval, 4)
	vals := make([]float64, 4)
	for i := range seeds {
		seeds[i] = iv(0, delta/4)
	}
	e.Register(spec, 100, seeds, vals)

	drive := func(hot int, rounds int) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < resplitEvery; i++ {
				key := hot
				if i%8 == 7 {
					key = (hot + 1) % 4 // a trickle on one cold key
				}
				_, _, steers := e.Observe(100, key, iv(float64(i), float64(i)+1), float64(i), true)
				for j := 1; j < len(steers); j++ {
					a := steers[j-1].Target - targetOf(t, e, steers[j-1].Key)
					_ = a // ordering checked below via budget property
				}
			}
		}
	}
	drive(0, 6)
	tg, ok := e.Targets(1, 1)
	if !ok {
		t.Fatalf("Targets missing")
	}
	sum := 0.0
	for _, w := range tg {
		sum += w
	}
	if sum > keyShare*delta*(1+1e-12) {
		t.Fatalf("target sum %g exceeds key budget %g: %v", sum, keyShare*delta, tg)
	}
	if tg[0] <= tg[2] || tg[0] <= tg[3] {
		t.Fatalf("hot key 0 not favored: %v", tg)
	}
	// Shift the heat: key 3 becomes hot, key 0 cools to nothing.
	drive(3, 12)
	tg, _ = e.Targets(1, 1)
	if tg[3] <= tg[1] || tg[3] <= tg[2] {
		t.Fatalf("after rate shift, hot key 3 not favored: %v", tg)
	}
	sum = 0
	for _, w := range tg {
		sum += w
	}
	if sum > keyShare*delta*(1+1e-12) {
		t.Fatalf("target sum %g exceeds key budget %g after shift: %v", sum, keyShare*delta, tg)
	}
}

func targetOf(t *testing.T, e *Engine, key int) float64 {
	t.Helper()
	tg, ok := e.Targets(1, 1)
	if !ok {
		t.Fatalf("Targets missing")
	}
	return tg[key]
}

// TestEngineResplitShrinksFirst checks the steer ordering invariant: within
// one re-split, every cap shrink precedes every cap growth, so the cap sum
// never exceeds the budget mid-application.
func TestEngineResplitShrinksFirst(t *testing.T) {
	e := NewEngine()
	spec := Spec{Owner: 1, QID: 1, Kind: Sum, Delta: 4, Keys: []int{0, 1}}
	e.Register(spec, 9, []interval.Interval{iv(0, 2), iv(0, 2)}, []float64{1, 1})
	var steers []Steer
	for i := 0; i < 4*resplitEvery && len(steers) == 0; i++ {
		_, _, steers = e.Observe(9, 0, iv(float64(i), float64(i+1)), float64(i), true)
	}
	if len(steers) == 0 {
		t.Skip("no re-split triggered (shares stayed within steerMinRel)")
	}
	t0 := InitialTarget(Sum, 4, 2)
	tg := map[int]float64{0: t0, 1: t0}
	sawGrowth := false
	for _, s := range steers {
		d := s.Target - tg[s.Key]
		if d < 0 && sawGrowth {
			t.Fatalf("shrink after growth in %v", steers)
		}
		if d > 0 {
			sawGrowth = true
		}
	}
}

func TestEngineMaxNeverResplits(t *testing.T) {
	e := NewEngine()
	spec := Spec{Owner: 1, QID: 1, Kind: Max, Delta: 4, Keys: []int{0, 1}}
	e.Register(spec, 9, []interval.Interval{iv(0, 2), iv(5, 7)}, []float64{1, 6})
	for i := 0; i < 4*resplitEvery; i++ {
		if _, _, steers := e.Observe(9, 0, iv(float64(i), float64(i+1)), float64(i), true); len(steers) != 0 {
			t.Fatalf("MAX query produced steers %v", steers)
		}
	}
}

// TestCQAllocBudget locks in the steady-state allocation budget of the
// engine hot path: once a query is registered and warm, Observe allocates
// nothing — it runs under the server's connection registry lock on every
// escaped refresh. CI runs this with the other allocation-regression gates.
func TestCQAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEngine()
	keys := make([]int, 64)
	seeds := make([]interval.Interval, 64)
	vals := make([]float64, 64)
	for i := range keys {
		keys[i], seeds[i], vals[i] = i, iv(float64(i), float64(i+1)), float64(i)
	}
	e.Register(Spec{Owner: 1, QID: 1, Kind: Sum, Delta: 64, Keys: keys}, 7, seeds, vals)
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		i++
		k := i % 64
		// allowSteer=false isolates the per-refresh path; re-splits are
		// amortized over resplitEvery observations and allocate their
		// steer slice by design.
		e.Observe(7, k, iv(float64(i), float64(i+1)), float64(i), false)
	}); n != 0 {
		t.Errorf("Observe: %v allocs/op, want 0", n)
	}
}
