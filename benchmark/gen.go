package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"apcache/internal/workload"
)

// Everything here is a function of -seed: the same seed gives the same
// initial values, update schedule, query stream and op schedule.

// subSeed derives an independent stream for one purpose from the run seed.
func subSeed(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// walks holds one [0.5, 1.5] random walk per key (the paper's Section 4.2
// update stream) and steps them in a fixed round-robin over a seeded
// permutation, so every key is updated at the same rate.
type walks struct {
	w    []*workload.RandomWalk
	perm []int
	next int
}

func newWalks(keys int, rng *rand.Rand) *walks {
	ws := &walks{w: make([]*workload.RandomWalk, keys), perm: rng.Perm(keys)}
	for k := range ws.w {
		ws.w[k] = workload.NewRandomWalk(100*rng.Float64(), 0.5, 1.5, rng)
	}
	return ws
}

func (ws *walks) initial() []float64 {
	v := make([]float64, len(ws.w))
	for k, w := range ws.w {
		v[k] = w.Value()
	}
	return v
}

// step advances the next key in the rotation and returns the update.
func (ws *walks) step(due int64) update {
	k := ws.perm[ws.next]
	ws.next = (ws.next + 1) % len(ws.perm)
	return update{Key: int32(k), Value: ws.w[k].Step(), Due: due}
}

// block returns n back-to-back updates (no due time).
func (ws *walks) block(n int) []update {
	out := make([]update, n)
	for i := range out {
		out[i] = ws.step(0)
	}
	return out
}

// feed returns the open-loop schedule: perTick updates due together every
// tick, from lead before the window opens until dur after.
func (ws *walks) feed(tick time.Duration, perTick int, lead, dur time.Duration) []update {
	ticks := int((lead + dur) / tick)
	out := make([]update, 0, ticks*perTick)
	for t := 0; t < ticks; t++ {
		due := int64(t)*int64(tick) - int64(lead)
		for i := 0; i < perTick; i++ {
			out = append(out, ws.step(due))
		}
	}
	return out
}

// cycle returns a block that can be applied back to back forever: n updates
// forward, then the same n undone in reverse order, which leaves every key
// where it started. Every step keeps the walk's magnitude.
func (ws *walks) cycle(n int) []update {
	cur := make([]float64, len(ws.w))
	for k, w := range ws.w {
		cur[k] = w.Value()
	}
	fwd := make([]update, n)
	prev := make([]float64, n)
	for i := range fwd {
		fwd[i] = ws.step(0)
		prev[i] = cur[fwd[i].Key]
		cur[fwd[i].Key] = fwd[i].Value
	}
	out := make([]update, 0, 2*n)
	out = append(out, fwd...)
	for i := n - 1; i >= 0; i-- {
		out = append(out, update{Key: fwd[i].Key, Value: prev[i]})
	}
	return out
}

// timeline is the parent's own copy of what every key was scheduled to be
// and when: the oracle the correctness checks and the staleness replay are
// judged against. Times are nanoseconds relative to T0; everything applied
// before the window opens sits at negative times, in order.
type timeline struct {
	due [][]int64
	val [][]float64
}

func newTimeline(initial []float64, warm, feed []update) *timeline {
	tl := &timeline{due: make([][]int64, len(initial)), val: make([][]float64, len(initial))}
	for k, v := range initial {
		tl.due[k] = append(tl.due[k], math.MinInt64)
		tl.val[k] = append(tl.val[k], v)
	}
	for i, u := range warm {
		tl.due[u.Key] = append(tl.due[u.Key], warmDue(i, len(warm)))
		tl.val[u.Key] = append(tl.val[u.Key], u.Value)
	}
	for _, u := range feed {
		tl.due[u.Key] = append(tl.due[u.Key], u.Due)
		tl.val[u.Key] = append(tl.val[u.Key], u.Value)
	}
	return tl
}

// window returns the values key held or took during [from, to]: the value
// in force at from, and every update due up to to.
func (tl *timeline) window(key int, from, to int64) []float64 {
	d := tl.due[key]
	lo := sort.Search(len(d), func(i int) bool { return d[i] > from }) - 1
	if lo < 0 {
		lo = 0
	}
	hi := sort.Search(len(d), func(i int) bool { return d[i] > to })
	return tl.val[key][lo:hi]
}

// holds reports whether [lo, hi] contains a value key held or took during
// [at-grace, at] — the validity promise as a remote holder can check it.
func (tl *timeline) holds(key int, lo, hi float64, at, grace int64) bool {
	for _, v := range tl.window(key, at-grace, at) {
		if lo <= v && v <= hi {
			return true
		}
	}
	return false
}

// rangeOver returns the smallest and largest value key held or took during
// [from, to].
func (tl *timeline) rangeOver(key int, from, to int64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range tl.window(key, from, to) {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// final returns the last scheduled value of every key.
func (tl *timeline) final() []float64 {
	out := make([]float64, len(tl.val))
	for k, v := range tl.val {
		out[k] = v[len(v)-1]
	}
	return out
}

// answerPossible reports whether [lo, hi] could bound q's aggregate at some
// instant of [from, to]: it must meet the range the true aggregate can have
// taken given each key's values over the window.
func (tl *timeline) answerPossible(q workload.Query, lo, hi float64, from, to int64) bool {
	var aggLo, aggHi float64
	switch q.Kind {
	case workload.Max:
		aggLo, aggHi = math.Inf(-1), math.Inf(-1)
	}
	for _, k := range q.Keys {
		l, h := tl.rangeOver(k, from, to)
		switch q.Kind {
		case workload.Sum:
			aggLo, aggHi = aggLo+l, aggHi+h
		case workload.Max:
			aggLo, aggHi = math.Max(aggLo, l), math.Max(aggHi, h)
		}
	}
	const eps = 1e-6
	return lo <= aggHi+eps && aggLo-eps <= hi
}

// zipfQueries draws n bounded queries the way the study does: kind uniform
// over kinds, keysPer distinct zipf(s) keys, delta uniform on [0, deltaMax].
func zipfQueries(rng *rand.Rand, n, keys, keysPer int, s, deltaMax float64, kinds []workload.AggKind) []workload.Query {
	g := &workload.QueryGen{
		Kinds:        kinds,
		NumSources:   keys,
		KeysPerQuery: keysPer,
		Constraints:  workload.FromRange(0, deltaMax),
		RNG:          rng,
		Zipf:         workload.NewZipfKeys(keys, s),
	}
	out := make([]workload.Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// warmDue places the i-th of n warm-up updates on the timeline: in order,
// before the lead-in.
func warmDue(i, n int) int64 { return -int64(leadIn) - int64(n-i) }

// jitteredDues returns n due offsets, one per period starting leadIn before
// the window opens, each moved forward by a seeded share of up to half a
// period. Independent users do not arrive on
// a grid, and a grid locks phase with every periodic thing in the system —
// feed ticks, the journal's 2 ms group commit — so that one run sees the
// best alignment for its whole window and the next the worst.
func jitteredDues(rng *rand.Rand, n int, period time.Duration) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)*int64(period) - int64(leadIn) + rng.Int63n(int64(period)/2)
	}
	return out
}
