// Aggregators fold keyed interval streams into a running aggregate
// interval, the incremental core of the continuous-query engine: each
// update touches O(1) state (SUM/AVG running endpoint sums) or O(log n)
// (MAX/MIN winner trees), never the whole key set.
package cq

import (
	"math"

	"apcache/internal/interval"
)

// Aggregator folds keyed interval updates into a running aggregate. An
// update replaces the key's previous contribution; keys join on first
// Update and never leave. Implementations are not safe for concurrent use.
type Aggregator interface {
	// Update upserts key's current approximation and the exact value it
	// was centered on at refresh time.
	Update(key int, iv interval.Interval, val float64)
	// Result returns the tight bound on the aggregate of the exact values,
	// given every folded key's current approximation.
	Result() interval.Interval
	// Value returns the center estimate: the aggregate of the exact values
	// the approximations were refreshed at.
	Value() float64
	// Len returns the number of keys folded in.
	Len() int
}

// rebaseEvery bounds the float drift of the incremental running sums:
// after this many updates the sums are recomputed from scratch.
const rebaseEvery = 4096

// sumAgg implements SUM and AVG with O(1) running sums of the interval
// endpoints and values; AVG is SUM scaled by 1/n at read time.
type sumAgg struct {
	idx   map[int]int
	ivs   []interval.Interval
	vals  []float64
	lo    float64
	hi    float64
	sum   float64
	avg   bool
	dirty int
}

// NewSum returns a SUM aggregator: Result is the Minkowski sum of the
// per-key intervals, updated in O(1).
func NewSum() Aggregator { return &sumAgg{idx: make(map[int]int)} }

// NewAvg returns an AVG aggregator: SUM scaled by the reciprocal of the
// number of keys folded in.
func NewAvg() Aggregator { return &sumAgg{idx: make(map[int]int), avg: true} }

func (a *sumAgg) Update(key int, iv interval.Interval, val float64) {
	i, ok := a.idx[key]
	if !ok {
		i = len(a.ivs)
		a.idx[key] = i
		a.ivs = append(a.ivs, interval.Exact(0))
		a.vals = append(a.vals, 0)
	}
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

func (a *sumAgg) Len() int { return len(a.ivs) }

// extremeAgg implements MAX and MIN with three winner trees — one per
// aggregate component (Lo endpoint, Hi endpoint, exact value) — so each
// update replays one leaf-to-root path per tree, O(log n).
type extremeAgg struct {
	idx map[int]int
	lo  tournament
	hi  tournament
	val tournament
}

// NewMax returns a MAX aggregator: Result is [max Lo, max Hi], the tight
// bound on the maximum of the exact values.
func NewMax() Aggregator {
	return &extremeAgg{idx: make(map[int]int), lo: maxTournament(), hi: maxTournament(), val: maxTournament()}
}

// NewMin returns a MIN aggregator: Result is [min Lo, min Hi].
func NewMin() Aggregator {
	return &extremeAgg{idx: make(map[int]int), lo: minTournament(), hi: minTournament(), val: minTournament()}
}

func (a *extremeAgg) Update(key int, iv interval.Interval, val float64) {
	i, ok := a.idx[key]
	if !ok {
		i = len(a.idx)
		a.idx[key] = i
	}
	a.lo.update(i, iv.Lo)
	a.hi.update(i, iv.Hi)
	a.val.update(i, val)
}

// Result panics when no key has been folded in yet:
// the extreme of an empty set does not exist.
func (a *extremeAgg) Result() interval.Interval {
	return interval.Interval{Lo: a.lo.best(), Hi: a.hi.best()}
}

func (a *extremeAgg) Value() float64 { return a.val.best() }

func (a *extremeAgg) Len() int { return len(a.idx) }

// tournament is a winner tree over a fixed, growable set of slots: leaves
// hold per-slot scores, internal nodes the winning slot; updating one slot
// replays its path to the root in O(log n). better(a, b) reports whether
// score a beats score b; empty slots always lose.
type tournament struct {
	base   int
	win    []int
	score  []float64
	better func(a, b float64) bool
}

func maxTournament() tournament { return tournament{better: func(a, b float64) bool { return a > b }} }
func minTournament() tournament { return tournament{better: func(a, b float64) bool { return a < b }} }

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

// grow rebuilds the tree with at least n leaf slots.
func (t *tournament) grow(n int) {
	base := t.base
	if base == 0 {
		base = 1
	}
	for base < n {
		base *= 2
	}
	t.base = base
	t.win = t.win[:0]
	for len(t.win) < 2*base {
		t.win = append(t.win, -1)
	}
	for i := range t.score {
		t.win[base+i] = i
	}
	for j := base - 1; j >= 1; j-- {
		t.win[j] = t.pick(t.win[2*j], t.win[2*j+1])
	}
}

// update sets slot's score (growing the tree for a new slot) and replays
// its path to the root.
func (t *tournament) update(slot int, s float64) {
	for len(t.score) <= slot {
		t.score = append(t.score, math.NaN())
	}
	t.score[slot] = s
	if slot >= t.base {
		t.grow(slot + 1)
		return
	}
	t.win[t.base+slot] = slot
	for j := (t.base + slot) / 2; j >= 1; j /= 2 {
		t.win[j] = t.pick(t.win[2*j], t.win[2*j+1])
	}
}

// winner returns the champion slot, or -1 when no slot holds a score.
func (t *tournament) winner() int {
	if t.base == 0 {
		return -1
	}
	return t.win[1]
}

// best returns the champion score; it panics on an empty tree.
func (t *tournament) best() float64 {
	w := t.winner()
	if w < 0 {
		panic("cq: extreme of empty aggregate")
	}
	return t.score[w]
}
