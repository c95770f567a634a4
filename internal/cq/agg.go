// Aggregators fold slot-indexed interval streams into a running aggregate
// interval, the incremental core of the continuous-query engine: each
// update touches O(1) state (SUM/AVG running endpoint sums) or O(log n)
// (MAX/MIN winner trees), never the whole key set.
package cq

import (
	"apcache/internal/interval"
	"apcache/internal/query"
)

// aggregator folds per-slot interval updates into a running aggregate over a
// fixed number of slots, one per member key in spec.Keys order. An update
// replaces the slot's previous contribution. Implementations are not safe for
// concurrent use.
type aggregator interface {
	// Update replaces slot's current approximation and the exact value it
	// was centered on at refresh time.
	Update(slot int, iv interval.Interval, val float64)
	// Result returns the tight bound on the aggregate of the exact values,
	// given every slot's current approximation.
	Result() interval.Interval
	// Value returns the center estimate: the aggregate of the exact values
	// the approximations were refreshed at.
	Value() float64
}

// newAggregator returns kind's aggregator over n slots. A SUM's or AVG's
// slot contributes Exact(0) until its first update; a MAX's or MIN's does
// not take part until then.
func newAggregator(kind query.AggKind, n int) aggregator {
	switch kind {
	case query.Max:
		return newExtreme(n, func(a, b float64) bool { return a > b })
	case query.Min:
		return newExtreme(n, func(a, b float64) bool { return a < b })
	default:
		return &sumAgg{ivs: make([]interval.Interval, n), vals: make([]float64, n), avg: kind == query.Avg}
	}
}

// rebaseEvery bounds the float drift of the incremental running sums:
// after this many updates the sums are recomputed from scratch.
const rebaseEvery = 4096

// sumAgg implements SUM and AVG with O(1) running sums of the interval
// endpoints and values: Result is the Minkowski sum of the per-slot
// intervals, and AVG is SUM scaled by 1/n at read time.
type sumAgg struct {
	ivs   []interval.Interval
	vals  []float64
	lo    float64
	hi    float64
	sum   float64
	avg   bool
	dirty int
}

func (a *sumAgg) Update(i int, iv interval.Interval, val float64) {
	old := a.ivs[i]
	a.ivs[i] = iv
	oldVal := a.vals[i]
	a.vals[i] = val
	if old.IsUnbounded() || iv.IsUnbounded() {
		// Inf - Inf is NaN; an unbounded endpoint entering or leaving the
		// fold invalidates the incremental delta, so recompute.
		a.rebase()
		return
	}
	a.lo += iv.Lo - old.Lo
	a.hi += iv.Hi - old.Hi
	a.sum += val - oldVal
	if a.dirty++; a.dirty >= rebaseEvery {
		a.rebase()
	}
}

// rebase recomputes the running sums from scratch, washing out the float
// drift that incremental add/subtract accumulates.
func (a *sumAgg) rebase() {
	a.lo, a.hi, a.sum, a.dirty = 0, 0, 0, 0
	for i, iv := range a.ivs {
		a.lo += iv.Lo
		a.hi += iv.Hi
		a.sum += a.vals[i]
	}
}

func (a *sumAgg) Result() interval.Interval {
	out := interval.Interval{Lo: a.lo, Hi: a.hi}
	if a.avg && len(a.ivs) > 0 {
		out = out.Scale(1 / float64(len(a.ivs)))
	}
	return out
}

func (a *sumAgg) Value() float64 {
	if a.avg && len(a.vals) > 0 {
		return a.sum / float64(len(a.vals))
	}
	return a.sum
}

// extremeAgg implements MAX and MIN with three winner trees — one per
// aggregate component (Lo endpoint, Hi endpoint, exact value) — so each
// update replays one leaf-to-root path per tree, O(log n). For MAX, Result
// is [max Lo, max Hi], the tight bound on the maximum of the exact values;
// for MIN, [min Lo, min Hi].
type extremeAgg struct {
	lo  tournament
	hi  tournament
	val tournament
}

func newExtreme(n int, better func(a, b float64) bool) *extremeAgg {
	return &extremeAgg{lo: newTournament(n, better), hi: newTournament(n, better), val: newTournament(n, better)}
}

func (a *extremeAgg) Update(i int, iv interval.Interval, val float64) {
	a.lo.update(i, iv.Lo)
	a.hi.update(i, iv.Hi)
	a.val.update(i, val)
}

// Result panics when no slot has been updated yet:
// the extreme of an empty set does not exist.
func (a *extremeAgg) Result() interval.Interval {
	return interval.Interval{Lo: a.lo.best(), Hi: a.hi.best()}
}

func (a *extremeAgg) Value() float64 { return a.val.best() }

// tournament is a winner tree over a fixed set of slots: leaves hold
// per-slot scores, internal nodes the winning slot; updating one slot
// replays its path to the root in O(log n). better(a, b) reports whether
// score a beats score b; a slot never updated is empty and always loses.
type tournament struct {
	base   int
	win    []int
	score  []float64
	better func(a, b float64) bool
}

// newTournament returns an all-empty winner tree over n slots.
func newTournament(n int, better func(a, b float64) bool) tournament {
	base := 1
	for base < n {
		base *= 2
	}
	t := tournament{base: base, win: make([]int, 2*base), score: make([]float64, n), better: better}
	for j := range t.win {
		t.win[j] = -1
	}
	return t
}

// pick returns the winner of two slot indices (-1 = empty).
func (t *tournament) pick(a, b int) int {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if t.better(t.score[b], t.score[a]) {
		return b
	}
	return a
}

// update sets slot's score and replays its path to the root.
func (t *tournament) update(slot int, s float64) {
	t.score[slot] = s
	t.win[t.base+slot] = slot
	for j := (t.base + slot) / 2; j >= 1; j /= 2 {
		t.win[j] = t.pick(t.win[2*j], t.win[2*j+1])
	}
}

// best returns the champion score; it panics on an empty tree.
func (t *tournament) best() float64 {
	w := t.win[1]
	if w < 0 {
		panic("cq: extreme of empty aggregate")
	}
	return t.score[w]
}
