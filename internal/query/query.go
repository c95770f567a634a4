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
//
// There is one planner core, Plan, and both hosts call it the same way:
// look every key up once, in order (Held), then hand Plan the held intervals
// and a Fill that fetches one round — apcache.Store key by key at ramp 1, the
// networked client as one ReadMulti at DefaultRamp. Execute and
// ExecuteBatchRamp are thin wrappers over it for callers with a per-key
// Lookup: internal/study/sim and the benchmark's layer replay pin them.
package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"apcache/internal/interval"
)

// AggKind enumerates the bounded-aggregate query types. The study uses SUM
// and MAX (Section 4.1); MIN and AVG are the natural companions supported by
// the same machinery. The wire carries a kind in one byte.
type AggKind int

const (
	// Sum asks for the sum of the selected values.
	Sum AggKind = iota
	// Max asks for the maximum.
	Max
	// Min asks for the minimum.
	Min
	// Avg asks for the arithmetic mean.
	Avg
)

// String returns the aggregate name.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Query is one bounded-aggregate query: compute Kind over the values named
// by Keys with result-interval width at most Delta.
type Query struct {
	Kind AggKind
	Keys []int
	// Delta is the precision constraint: the maximum acceptable width of
	// the result interval. Delta = 0 demands an exact answer.
	Delta float64
}

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
// len(keys)). Like Fetch, the callee handles cost accounting and interval
// installation. The callee must not keep keys past the call: the planner
// reuses the list.
type BatchFetch func(keys []int) []float64

// Fill performs one fetch round of query-initiated refreshes: it writes the
// exact value of keys[i] into vals[i]. The host does the cost accounting and
// the interval installation, as for Fetch. Neither slice may be kept past
// the call: both are the planner's pooled scratch.
type Fill func(keys []int, vals []float64)

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
// refinement rounds the networked client runs: rounds fetch 1, 8, 64, … top
// candidates. A round trip costs two orders of magnitude more than the
// source-side refresh it carries (83–105× on loopback), so rounds are worth
// saving up to the point where the over-fetch octuples the minimal refresh
// set.
const DefaultRamp = 8.0

// Plan runs one bounded-aggregate query to completion over the intervals a
// host looked up for it: held[i] is what the host holds for q.Keys[i], or
// interval.Unbounded() when it holds nothing (Held builds it from a Lookup).
// The planner fetches exact values through fill, one call per round, until
// the precision constraint is guaranteed, and returns the bounding answer.
//
// SUM and AVG decide their whole refresh set from the held widths upfront,
// so they fill at most one round. MAX and MIN are inherently iterative (each
// exact value can eliminate remaining candidates), so they fetch every
// unbounded key in the first round and the rest in geometrically growing
// rounds: round r fetches ceil(ramp^r) top candidates, trading rounds
// against over-fetching. Larger factors finish in fewer rounds — O(log K)
// for any factor above 1 — but may refresh keys past the minimal set;
// ramp = 1 is refresh-minimal: exactly the keys the paper's candidate
// elimination refreshes, the unbounded ones in one round and the rest one
// per round. ramp must be >= 1.
//
// Cancellation is checked before every round, so a cancelled MAX/MIN query
// stops mid-ramp and returns the context's error with a zero Answer. A host
// that honours ctx inside a round too must discard the Answer of a round it
// cut short.
//
// Answer.Refreshed is built in refreshed's backing array when the fetched
// keys fit, and allocated otherwise: a host whose Answer does not outlive
// its caller's frame can pass a stack array and so allocate nothing at all.
// Plan panics on an unsupported aggregate kind, an empty key set or a held
// list of the wrong length (programming errors, not data errors).
func Plan(ctx context.Context, q Query, held []interval.Interval, fill Fill, ramp float64, refreshed []int) (Answer, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.plan(ctx, q, held, fill, ramp, refreshed)
}

// Held appends to dst what get holds for each of keys, looked up once each
// and in order, with interval.Unbounded() for a key it does not hold: the
// held list Plan takes.
func Held(dst []interval.Interval, keys []int, get Lookup) []interval.Interval {
	for _, k := range keys {
		iv, ok := get(k)
		if !ok {
			iv = interval.Unbounded()
		}
		dst = append(dst, iv)
	}
	return dst
}

// Execute is Plan over get's intervals at ramp 1, with every round spelled
// out key by key through fetch: the paper's one-at-a-time refresh sequence.
// The simulator and the benchmark's layer replay call it.
func Execute(q Query, get Lookup, fetch Fetch) Answer {
	return lookupAndPlan(q, get, func(keys []int, vals []float64) {
		for i, k := range keys {
			vals[i] = fetch(k)
		}
	}, 1)
}

// ExecuteBatchRamp is Plan over get's intervals with each round one
// BatchFetch call. The benchmark's layer replay calls it.
func ExecuteBatchRamp(q Query, get Lookup, fetch BatchFetch, ramp float64) Answer {
	return lookupAndPlan(q, get, func(keys []int, vals []float64) { copy(vals, fetch(keys)) }, ramp)
}

// lookupAndPlan is the two wrappers' shared body: Held, then Plan, with the
// held list in the same pooled scratch.
func lookupAndPlan(q Query, get Lookup, fill Fill, ramp float64) Answer {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.held = Held(sc.held[:0], q.Keys, get)
	ans, _ := sc.plan(context.Background(), q, sc.held, fill, ramp, nil)
	return ans
}

// plan is Plan in sc.
func (sc *scratch) plan(ctx context.Context, q Query, held []interval.Interval, fill Fill, ramp float64, refreshed []int) (Answer, error) {
	if len(q.Keys) == 0 {
		panic("query: empty key set")
	}
	if len(held) != len(q.Keys) {
		panic(fmt.Sprintf("query: %d held intervals for %d keys", len(held), len(q.Keys)))
	}
	if ramp < 1 || math.IsNaN(ramp) || math.IsInf(ramp, 1) {
		panic(fmt.Sprintf("query: ramp factor %g outside [1, +Inf)", ramp))
	}
	sc.entries = sc.entries[:0]
	for i, k := range q.Keys {
		sc.entries = append(sc.entries, entry{key: k, iv: held[i]})
	}
	sc.fetched = sc.fetched[:0]
	var result interval.Interval
	var err error
	switch q.Kind {
	case Sum:
		result, err = sc.sum(ctx, q.Delta, 1, fill)
	case Avg:
		result, err = sc.sum(ctx, q.Delta, 1/float64(len(q.Keys)), fill)
	case Max:
		result, err = sc.extreme(ctx, q.Delta, false, fill, ramp)
	case Min:
		result, err = sc.extreme(ctx, q.Delta, true, fill, ramp)
	default:
		panic(fmt.Sprintf("query: unsupported aggregate %v", q.Kind))
	}
	if err != nil {
		return Answer{}, err
	}
	a := Answer{Result: result}
	if len(sc.fetched) > 0 {
		a.Refreshed = append(refreshed[:0], sc.fetched...)
	}
	return a, nil
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
	order   []int               // indices into entries: SUM's refresh order, MAX/MIN's candidates
	fetched []int               // the keys fetched so far, in fetch order; each round is its tail
	vals    []float64           // one round's values, written by fill
	held    []interval.Interval // the wrappers' lookups
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fetch runs one fill round for keys. fill is passed down the call, never
// stored, so a host's closure stays on its stack.
func (sc *scratch) fetch(fill Fill, keys []int) []float64 {
	sc.vals = slices.Grow(sc.vals[:0], len(keys))[:len(keys)]
	fill(keys, sc.vals)
	return sc.vals
}

// sum handles SUM (scale 1) and AVG (scale 1/n). The result width is
// scale * sum of widths, so the minimal refresh set is the widest intervals:
// sort by width descending and refresh until the residual width meets the
// constraint. The whole refresh set is known before any value is fetched, so
// it always costs exactly one fill round (one network round trip on the
// client).
func (sc *scratch) sum(ctx context.Context, delta, scale float64, fill Fill) (interval.Interval, error) {
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
		vals := sc.fetch(fill, sc.fetched)
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
// Round r fetches the top min(ceil(ramp^r), candidates) keys in one fill
// round, and never fewer than the certain set: an uncached key is
// unbounded, so the paper's sequence refreshes it whatever the other values
// turn out to be, and all of them go out together in round 1. Past that the
// refresh set may exceed the minimal one, but the number of round trips drops
// from O(K) to O(log K) for any factor > 1; ramp = 1 is refresh-minimal — the
// paper's one-at-a-time sequence exactly, one bounded key per round.
func (sc *scratch) extreme(ctx context.Context, delta float64, minimize bool, fill Fill, ramp float64) (interval.Interval, error) {
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
		vals := sc.fetch(fill, sc.fetched[start:])
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
