// Package query implements bounded-aggregate query processing over cached
// interval approximations, in the style of Olston and Widom's TRAPP system
// [OW00], which the SIGMOD 2001 study uses to generate its query load
// (Section 4.1): each query computes SUM or MAX (here also MIN and AVG) over
// a set of approximate values and carries a precision constraint delta, the
// maximum acceptable width of the result interval. If the cached intervals
// cannot meet the constraint, a subset of the values is refreshed from their
// sources (query-initiated refreshes) until the constraint is guaranteed.
//
// The refresh-set selection is the package's core: for SUM/AVG the result
// width is the (scaled) sum of the input widths, so refreshing the widest
// intervals first minimizes the number of refreshes; for MAX/MIN candidates
// are eliminated using interval endpoints, so caching non-exact intervals
// helps even for exact-answer queries (Section 4.4's observation that
// lambda1 = Inf is best for MAX even at davg = 0).
package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"apcache/internal/interval"
	"apcache/internal/workload"
)

// Lookup returns the cached approximation for a key. ok is false when the
// key is not cached, in which case the processor treats the approximation as
// unbounded (no information).
type Lookup func(key int) (iv interval.Interval, ok bool)

// Fetch performs a query-initiated refresh for a key and returns the exact
// value. The callee is responsible for cost accounting and for installing
// whatever new interval its width policy produces in the cache; the query
// processor uses the returned exact value directly.
type Fetch func(key int) float64

// BatchFetch performs query-initiated refreshes for a set of keys in one
// round trip, returning the exact values in key order (len(result) ==
// len(keys)). The networked client backs it with a single ReadMulti frame;
// like Fetch, the callee handles cost accounting and interval installation.
// The callee must not keep keys past the call: the planner reuses the list.
type BatchFetch func(keys []int) []float64

// Answer is the result of executing a bounded-aggregate query.
type Answer struct {
	// Result bounds the aggregate; its width is <= the query's Delta.
	Result interval.Interval
	// Refreshed lists the keys fetched from sources, in fetch order.
	Refreshed []int
}

// Estimate returns the midpoint of the result interval, the conventional
// scalar estimate.
func (a Answer) Estimate() float64 { return a.Result.Center() }

// DefaultRamp is the geometric growth factor of the batched MAX/MIN
// refinement rounds: each round fetches DefaultRamp times as many top
// candidates as the last. 2 bounds the over-fetch at about twice the minimal
// refresh set while keeping the round count O(log K).
const DefaultRamp = 2.0

// Execute runs one bounded-aggregate query to completion against a per-key
// fetch: it reads the cached intervals, fetches exact values one at a time
// until the precision constraint is guaranteed, and returns the bounding
// answer. It refreshes the paper's minimal sets — it is the planner at ramp 1
// (see ExecuteBatchRamp) with every round spelled out key by key. It panics
// on an unsupported aggregate kind or empty key set (programming errors, not
// data errors).
func Execute(q workload.Query, get Lookup, fetch Fetch) Answer {
	ans, _ := ExecuteCtx(context.Background(), q, get, fetch, nil)
	return ans
}

// ExecuteCtx is Execute bounded by ctx: cancellation is checked before every
// fetch, so a cancelled query stops refreshing mid-sequence — between two
// keys of one round too — and returns the context's error with a zero
// Answer. With a never-cancelled context it is exactly Execute.
//
// Answer.Refreshed is built in refreshed's backing array when the fetched
// keys fit, and allocated otherwise: a caller whose Answer does not outlive
// its frame can pass a stack array and so allocate nothing at all.
func ExecuteCtx(ctx context.Context, q workload.Query, get Lookup, fetch Fetch, refreshed []int) (Answer, error) {
	if fetch == nil {
		panic("query: nil Lookup or Fetch")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var cut error // set once a round was abandoned part-way; its values are not answers
	one := func(keys []int) []float64 {
		sc.vals = slices.Grow(sc.vals[:0], len(keys))[:len(keys)]
		for i, k := range keys {
			if cut = ctx.Err(); cut != nil {
				break
			}
			sc.vals[i] = fetch(k)
		}
		return sc.vals
	}
	result, err := execute(ctx, sc, q, get, one, 1)
	if cut != nil {
		err = cut
	}
	return sc.answer(result, err, refreshed)
}

// ExecuteBatchRamp is Execute against a batched fetch path: it groups the
// refresh set into as few BatchFetch calls as possible. SUM and AVG decide
// their whole refresh set from the cached widths upfront, so they issue at
// most one call. MAX and MIN are inherently iterative (each exact value can
// eliminate remaining candidates), so they fetch every uncached key in the
// first round and the rest in geometrically growing rounds: round r fetches
// ceil(ramp^r) top candidates, trading round trips against over-fetching.
// Larger factors finish in fewer rounds — O(log K) for any factor above 1 —
// but may refresh more keys past the minimal set (about twice it at
// DefaultRamp); ramp = 1 is refresh-minimal: exactly the keys the paper's
// candidate elimination refreshes, the uncached ones in one round trip and
// the rest one per round. ramp must be >= 1.
func ExecuteBatchRamp(q workload.Query, get Lookup, fetch BatchFetch, ramp float64) Answer {
	ans, _ := ExecuteBatchRampCtx(context.Background(), q, get, fetch, ramp)
	return ans
}

// ExecuteBatchRampCtx is ExecuteBatchRamp bounded by ctx. Cancellation is
// checked before every refinement round, so a cancelled MAX/MIN query stops
// mid-ramp — no further fetch rounds are issued — and returns the context's
// error with a zero Answer.
func ExecuteBatchRampCtx(ctx context.Context, q workload.Query, get Lookup, fetch BatchFetch, ramp float64) (Answer, error) {
	if fetch == nil {
		panic("query: nil Lookup or Fetch")
	}
	if ramp < 1 || math.IsNaN(ramp) || math.IsInf(ramp, 1) {
		panic(fmt.Sprintf("query: ramp factor %g outside [1, +Inf)", ramp))
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	result, err := execute(ctx, sc, q, get, fetch, ramp)
	return sc.answer(result, err, nil)
}

// execute dispatches one query and returns its result interval; the keys it
// fetched are sc.fetched. ramp (>= 1) sizes the refinement rounds of the
// extreme aggregates.
func execute(ctx context.Context, sc *scratch, q workload.Query, get Lookup, fetch BatchFetch, ramp float64) (interval.Interval, error) {
	if len(q.Keys) == 0 {
		panic("query: empty key set")
	}
	if get == nil {
		panic("query: nil Lookup or Fetch")
	}
	sc.entries = load(sc.entries, q.Keys, get)
	sc.fetched = sc.fetched[:0]
	switch q.Kind {
	case workload.Sum:
		return sc.sum(ctx, q.Delta, 1, fetch)
	case workload.Avg:
		return sc.sum(ctx, q.Delta, 1/float64(len(q.Keys)), fetch)
	case workload.Max:
		return sc.extreme(ctx, q.Delta, false, fetch, ramp)
	case workload.Min:
		return sc.extreme(ctx, q.Delta, true, fetch, ramp)
	default:
		panic(fmt.Sprintf("query: unsupported aggregate %v", q.Kind))
	}
}

// entry is one key's working state during execution.
type entry struct {
	key int
	iv  interval.Interval
}

// scratch is one execution's working set. It is reused across queries
// through scratchPool, so planning allocates nothing: the only allocation a
// query can make is its Answer.Refreshed, and only when it fetched.
type scratch struct {
	entries []entry
	order   []int     // indices into entries: SUM's refresh order, MAX/MIN's candidates
	fetched []int     // the keys fetched so far, in fetch order; each round is its tail
	vals    []float64 // ExecuteCtx's values for one round of per-key fetches
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// answer returns the result with a copy of the fetched keys, in refreshed's
// backing array when they fit: the scratch goes back to the pool, the Answer
// to the caller.
func (sc *scratch) answer(result interval.Interval, err error, refreshed []int) (Answer, error) {
	if err != nil {
		return Answer{}, err
	}
	a := Answer{Result: result}
	if len(sc.fetched) > 0 {
		a.Refreshed = append(refreshed[:0], sc.fetched...)
	}
	return a, nil
}

// load reads the working intervals into dst, treating uncached keys as
// unbounded.
func load(dst []entry, keys []int, get Lookup) []entry {
	dst = dst[:0]
	for _, k := range keys {
		iv, ok := get(k)
		if !ok {
			iv = interval.Unbounded()
		}
		dst = append(dst, entry{key: k, iv: iv})
	}
	return dst
}

// sum handles SUM (scale 1) and AVG (scale 1/n). The result width is
// scale * sum of widths, so the minimal refresh set is the widest intervals:
// sort by width descending and refresh until the residual width meets the
// constraint. The whole refresh set is known before any value is fetched, so
// it always costs exactly one BatchFetch call (one network round trip on the
// batched client).
func (sc *scratch) sum(ctx context.Context, delta, scale float64, fetch BatchFetch) (interval.Interval, error) {
	entries := sc.entries
	// Order indices by width descending; unbounded first.
	order := sc.order[:0]
	for i := range entries {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return wider(entries[a].iv, entries[b].iv) })
	sc.order = order
	var residual float64 // total width of intervals we keep
	for _, i := range order {
		w := entries[i].iv.Width()
		if !math.IsInf(w, 1) {
			residual += w
		}
	}
	// The refresh set is the widest n entries; fetch it in one pass.
	n := 0
	for _, i := range order {
		w := entries[i].iv.Width()
		if !math.IsInf(w, 1) && residual*scale <= delta {
			break
		}
		n++
		if !math.IsInf(w, 1) {
			residual -= w
		}
	}
	if n > 0 {
		if err := ctx.Err(); err != nil {
			return interval.Interval{}, err
		}
		for _, i := range order[:n] {
			sc.fetched = append(sc.fetched, entries[i].key)
		}
		vals := fetch(sc.fetched)
		for j, i := range order[:n] {
			entries[i].iv = interval.Exact(vals[j])
		}
	}
	sum := interval.Exact(0)
	for _, e := range entries {
		sum = sum.Add(e.iv)
	}
	return sum.Scale(scale), nil
}

// widthRank orders widths with +Inf greatest.
func widthRank(iv interval.Interval) float64 {
	w := iv.Width()
	if math.IsInf(w, 1) {
		return math.MaxFloat64
	}
	return w
}

// wider compares two intervals widest first, as a sort comparator.
func wider(a, b interval.Interval) int { return cmp.Compare(widthRank(b), widthRank(a)) }

// extreme handles MAX (and MIN by negation). The bound on the
// maximum is [max Lo_i, max Hi_i]; while it is too wide, fetch the key with
// the greatest upper endpoint among non-exact entries. Each fetch pins that
// entry to a point, which either lowers the collective upper bound or raises
// the lower bound, and intervals wholly below the current lower bound are
// never fetched — the candidate-elimination property that makes interval
// caching profitable for MAX queries even under exact-answer constraints.
//
// Round r fetches the top min(ceil(ramp^r), candidates) keys in one
// BatchFetch call, and never fewer than the certain set: an uncached key is
// unbounded, so the paper's sequence refreshes it whatever the other values
// turn out to be, and all of them go out together in round 1. Past that the
// refresh set may exceed the minimal one, but the number of round trips drops
// from O(K) to O(log K) for any factor > 1; ramp = 1 is refresh-minimal — the
// paper's one-at-a-time sequence exactly, one bounded key per round.
func (sc *scratch) extreme(ctx context.Context, delta float64, minimize bool, fetch BatchFetch, ramp float64) (interval.Interval, error) {
	entries := sc.entries
	if minimize {
		for i := range entries {
			entries[i].iv = negate(entries[i].iv)
		}
	}
	result := func(bound interval.Interval) (interval.Interval, error) {
		if minimize {
			bound = negate(bound)
		}
		return bound, nil
	}
	batchSize := 1
	for {
		bound := entries[0].iv
		for _, e := range entries[1:] {
			bound = bound.Max(e.iv)
		}
		if bound.Width() <= delta {
			return result(bound)
		}
		// Honor cancellation between refinement rounds: only once the
		// constraint is known unmet, and before the next fetch is issued,
		// so a cancelled query stops mid-ramp.
		if err := ctx.Err(); err != nil {
			return interval.Interval{}, err
		}
		// Candidates: non-exact entries that could still be the greatest
		// upper endpoint of a bound wider than delta. Ties broken by wider
		// interval to maximize information gained.
		cands := sc.order[:0]
		certain := 0 // candidates with no upper bound at all
		// The lower bound only rises as exact values arrive, so a key whose
		// upper endpoint is within delta of it now stays out for good.
		// Written as the subtraction Width makes, so the filter and the
		// termination test above round the same way and the greatest upper
		// endpoint is always a candidate.
		for i, e := range entries {
			if e.iv.IsExact() || e.iv.Hi-bound.Lo <= delta {
				continue
			}
			cands = append(cands, i)
			if math.IsInf(e.iv.Hi, 1) {
				certain++
			}
		}
		sc.order = cands
		slices.SortStableFunc(cands, func(a, b int) int {
			ia, ib := entries[a].iv, entries[b].iv
			if c := cmp.Compare(ib.Hi, ia.Hi); c != 0 {
				return c
			}
			return wider(ia, ib)
		})
		if len(cands) == 0 {
			// All entries exact: the bound width is 0 <= delta; cannot
			// happen unless delta < 0.
			return result(bound)
		}
		// The certain set sorts first (upper endpoint +Inf) and goes out
		// whole, in one round trip, ahead of the ramp's speculation.
		n := max(batchSize, certain)
		if n > len(cands) {
			n = len(cands)
		}
		// Geometric growth by the ramp factor; ceil keeps fractional factors
		// growing and a factor of exactly 1 fixed at one key per round. Clamp
		// the float product before converting: a huge factor would otherwise
		// overflow int to a negative bound.
		next := math.Ceil(float64(batchSize) * ramp)
		if next > float64(len(entries)) {
			next = float64(len(entries))
		}
		batchSize = int(next)
		start := len(sc.fetched)
		for _, i := range cands[:n] {
			sc.fetched = append(sc.fetched, entries[i].key)
		}
		vals := fetch(sc.fetched[start:])
		for j, i := range cands[:n] {
			v := vals[j]
			if minimize {
				v = -v
			}
			entries[i].iv = interval.Exact(v)
		}
	}
}

// negate mirrors an interval about zero, mapping MIN onto MAX.
func negate(iv interval.Interval) interval.Interval {
	return interval.Interval{Lo: -iv.Hi, Hi: -iv.Lo}
}
