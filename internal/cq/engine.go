// Package cq implements the server-side continuous-query engine: standing
// bounded aggregates (SUM/AVG/MAX/MIN over a key set, precision budget
// Delta) maintained incrementally off the refresh push path.
//
// Each registered query acts as one more cache client inside the server: it
// holds its own per-key width-policy subscriptions (under an
// engine-allocated cache ID), so the paper's adaptive controllers keep
// working unchanged one level down. The engine adds the level above — it
// splits a keyShare of Delta into per-key width caps (SUM/AVG; MAX/MIN keep
// Delta per key), folds every refresh that escapes a cap-clamped interval
// into a running tight aggregate (O(1) for SUM/AVG, winner trees for
// MAX/MIN), and re-splits the key budget adaptively as observed refresh
// rates shift, steering wide shares to hot keys.
//
// The answer a query ships is itself a cached interval in the paper's
// sense, a filter: the tight aggregate padded symmetrically out to Delta,
// held until the tight aggregate is no longer inside it. In-process key
// refreshes are cheap and only the answer crosses the wire, so the slack
// sits at the answer: the independent errors of n keys largely cancel in a
// sum, and the part of Delta not split across keys buys far more silence
// around the aggregate than the same slack would around each key (Olston,
// Jiang & Widom, SIGMOD 2003).
package cq

import (
	"math"
	"sort"

	"apcache/internal/interval"
	"apcache/internal/query"
)

// AggKind names the planner's aggregate kind for the benchmark module,
// which converts to it when it builds a Spec.
type AggKind = query.AggKind

// Spec describes one standing query.
type Spec struct {
	// Owner is the connection the query belongs to; updates carry it back
	// so the server can route them without a reverse index.
	Owner int
	// QID is the client-chosen handle, unique within the owner.
	QID uint64
	// Kind selects the aggregate.
	Kind query.AggKind
	// Delta is the precision budget: the answer interval's width never
	// exceeds it.
	Delta float64
	// Keys is the aggregated key set, distinct.
	Keys []int
}

// Update is one change to a standing query's answer, addressed to its
// owning connection.
type Update struct {
	Owner int
	QID   uint64
	Value float64
	Iv    interval.Interval
}

// Steer directs one key's width cap at Target for the query's subscription
// (CacheID). The server applies it by re-capping the source subscription
// and force-reading the key when its current width exceeds Target. Steers
// are ordered shrinks-first so the budget invariant (cap sum <=
// keyShare·Delta) holds at every instant of a gradual application.
type Steer struct {
	CacheID int
	Key     int
	Target  float64
}

// Budget re-splitting parameters: a query re-splits after resplitEvery
// value-initiated refreshes, rate EWMAs mix half old/half new per window,
// rateFloor keeps cold keys alive, and a re-split is applied only when
// some share moved by more than steerMinRel.
const (
	resplitEvery = 64
	rateFloor    = 1.0 / 64
	steerMinRel  = 0.10
)

// keyShare is the part of a SUM/AVG query's Delta that is split into
// per-key width caps; the rest is slack the answer envelope is guaranteed
// around the tight aggregate. A smaller share trades in-process key
// refreshes (and their journaled widths) for answers on the wire; the
// recorded sweep (BENCH_cq.json, standing_durable) has 1/2 buying 12 %
// fewer answers for 46 % more key refreshes and 7/8 saving 11 % of the
// refreshes for 27 % more answers.
const keyShare = 0.75

// InitialTarget returns the equal-split per-key width target a newly
// registered query starts from: keyShare·Delta/n for SUM (the Minkowski sum
// of the widths stays within keyShare·Delta), keyShare·Delta per key for
// AVG (whose answer width is the mean of the per-key widths), and the full
// Delta per key for MAX/MIN (whose answer width is at most the widest
// single interval: one key dominates an extreme, nothing cancels, and
// narrowing every key to widen the envelope costs more than it saves).
func InitialTarget(kind query.AggKind, delta float64, n int) float64 {
	switch {
	case kind == query.Sum && n > 0:
		return keyShare * delta / float64(n)
	case kind == query.Avg:
		return keyShare * delta
	}
	return delta
}

// envelope returns the answer to ship for a tight aggregate: tight padded
// symmetrically out to delta, or tight itself when it already fills the
// budget (or exceeds it, or is unbounded). The padded width is Hi - Lo in
// float arithmetic like Interval.Width, so a rounding that lands it an ulp
// over delta is shaved off the padding, never tolerated.
func envelope(tight interval.Interval, delta float64) interval.Interval {
	w := tight.Width()
	if !(w < delta) {
		return tight
	}
	pad := (delta - w) / 2
	env := interval.Interval{Lo: tight.Lo - pad, Hi: tight.Hi + pad}
	for env.Width() > delta {
		if env.Hi > tight.Hi {
			env.Hi = math.Nextafter(env.Hi, math.Inf(-1))
		} else {
			env.Lo = math.Nextafter(env.Lo, math.Inf(1))
		}
	}
	return env
}

// standing is the engine-side state of one registered standing query.
type standing struct {
	spec    Spec
	cacheID int
	idx     map[int]int // member key → slot in spec.Keys, and in agg
	agg     aggregator
	// answer is the envelope last sent to the client and value the
	// aggregate center it was sent with; both stand until the next emission.
	answer interval.Interval
	value  float64

	// Budget state, slot-indexed like spec.Keys.
	targets []float64
	counts  []float64
	rates   []float64
	scores  []float64
	events  int
}

// fold replaces member slot's contribution to the aggregate and reports
// whether the held answer had to be replaced: the tight aggregate is no
// longer inside it. An answer held over budget (tight was wider than Delta
// when it was sent) is no envelope; it is replaced as soon as tight differs,
// so precision is restored the moment the keys allow it.
func (q *standing) fold(slot int, iv interval.Interval, val float64) bool {
	q.agg.Update(slot, iv, val)
	tight := q.agg.Result()
	if tight == q.answer || (q.answer.Width() <= q.spec.Delta && q.answer.Contains(tight)) {
		return false
	}
	q.seal(tight)
	return true
}

// seal makes the envelope of tight the held answer.
func (q *standing) seal(tight interval.Interval) {
	q.answer, q.value = envelope(tight, q.spec.Delta), q.agg.Value()
}

// Engine maintains every registered standing query. It is not safe for
// concurrent use: the caller guards every method with one lock of its own
// (the server's cqMu, which Observe already needs to order each query's
// answers).
type Engine struct {
	byCache map[int]*standing
	byOwner map[int]map[uint64]*standing
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		byCache: make(map[int]*standing),
		byOwner: make(map[int]map[uint64]*standing),
	}
}

// Queries returns the number of registered standing queries.
func (e *Engine) Queries() int {
	return len(e.byCache)
}

// Register installs a standing query under the server-allocated cacheID.
// ivs[i] and vals[i] seed key spec.Keys[i]'s current approximation (the
// caller subscribes and reads the keys first, under their shard locks).
// It replaces any previous query with the same (Owner, QID); replaced
// reports that, carrying the old query's cacheID and keys for the caller
// to unsubscribe. The returned Update is the registration's initial
// answer: the envelope of the fully seeded aggregate.
func (e *Engine) Register(spec Spec, cacheID int, ivs []interval.Interval, vals []float64) (up Update, replaced Dropped, wasReplaced bool) {
	q := &standing{
		spec:    spec,
		cacheID: cacheID,
		idx:     make(map[int]int, len(spec.Keys)),
		agg:     newAggregator(spec.Kind, len(spec.Keys)),
		targets: make([]float64, len(spec.Keys)),
		counts:  make([]float64, len(spec.Keys)),
		rates:   make([]float64, len(spec.Keys)),
		scores:  make([]float64, len(spec.Keys)),
	}
	t0 := InitialTarget(spec.Kind, spec.Delta, len(spec.Keys))
	for i, k := range spec.Keys {
		q.idx[k] = i
		q.targets[i] = t0
		q.agg.Update(i, ivs[i], vals[i])
	}
	if len(spec.Keys) > 0 { // the extreme of no keys does not exist
		q.seal(q.agg.Result())
	}
	owned := e.byOwner[spec.Owner]
	if owned == nil {
		owned = make(map[uint64]*standing)
		e.byOwner[spec.Owner] = owned
	}
	if old := owned[spec.QID]; old != nil {
		delete(e.byCache, old.cacheID)
		replaced = Dropped{CacheID: old.cacheID, Keys: old.spec.Keys}
		wasReplaced = true
	}
	owned[spec.QID] = q
	e.byCache[cacheID] = q
	return Update{Owner: spec.Owner, QID: spec.QID, Value: q.value, Iv: q.answer}, replaced, wasReplaced
}

// Dropped names a torn-down query's source-side footprint: the cache ID its
// subscriptions were installed under and the keys they cover.
type Dropped struct {
	CacheID int
	Keys    []int
}

// Unregister removes the owner's query qid, reporting its footprint for
// the caller to unsubscribe.
func (e *Engine) Unregister(owner int, qid uint64) (Dropped, bool) {
	q := e.byOwner[owner][qid]
	if q == nil {
		return Dropped{}, false
	}
	delete(e.byOwner[owner], qid)
	if len(e.byOwner[owner]) == 0 {
		delete(e.byOwner, owner)
	}
	delete(e.byCache, q.cacheID)
	return Dropped{CacheID: q.cacheID, Keys: q.spec.Keys}, true
}

// DropOwner removes every query owned by the connection, returning their
// footprints; the server calls it from connection teardown.
func (e *Engine) DropOwner(owner int) []Dropped {
	owned := e.byOwner[owner]
	if len(owned) == 0 {
		return nil
	}
	out := make([]Dropped, 0, len(owned))
	for _, q := range owned {
		delete(e.byCache, q.cacheID)
		out = append(out, Dropped{CacheID: q.cacheID, Keys: q.spec.Keys})
	}
	delete(e.byOwner, owner)
	return out
}

// Observe folds one refresh addressed to cacheID into its query: the
// engine recomputes the tight aggregate incrementally and reports whether
// it left the answer the client holds (emit) along with the replacement to
// push. allowSteer marks a value-initiated refresh, an escape: it counts
// towards the key's refresh rate, and once the query's re-split window has
// elapsed steers carries the new per-key width caps for the caller to apply
// after releasing its shard lock (shrinks first). The forced reads those
// applications cause are the re-split's own doing, not the keys': callers
// re-observe them with allowSteer=false, which neither counts them nor
// re-splits again. Refreshes whose cacheID is no registered query are
// ignored.
func (e *Engine) Observe(cacheID, key int, iv interval.Interval, val float64, allowSteer bool) (up Update, emit bool, steers []Steer) {
	q := e.byCache[cacheID]
	if q == nil {
		return Update{}, false, nil
	}
	i, ok := q.idx[key]
	if !ok {
		return Update{}, false, nil
	}
	if emit = q.fold(i, iv, val); emit {
		up = Update{Owner: q.spec.Owner, QID: q.spec.QID, Value: q.value, Iv: q.answer}
	}
	if allowSteer {
		q.counts[i]++
		if q.events++; q.events >= resplitEvery {
			steers = q.resplit()
		}
	}
	return up, emit, steers
}

// Answer returns the answer the query's client holds: the envelope last
// emitted and the aggregate center it carried. For tests and stats.
func (e *Engine) Answer(owner int, qid uint64) (interval.Interval, float64, bool) {
	q := e.byOwner[owner][qid]
	if q == nil {
		return interval.Interval{}, 0, false
	}
	return q.answer, q.value, true
}

// resplit re-divides the query's budget across its keys from the refresh
// rates observed since the last window.
//
// For a random-walk value with step variance sigma^2 cached at width w, the
// escape (refresh) rate scales as sigma^2/w^2; from the observed count c at
// the current width the engine infers sigma^2 ∝ c·w^2, and minimizing the
// total refresh rate subject to the width budget gives the optimum
// w ∝ (c·w^2)^(1/3) — hot keys earn wide shares, quiet keys lend theirs.
// MAX/MIN queries never re-split: a flat Delta per key already meets the
// budget, and narrowing one key cannot loosen another's requirement.
func (q *standing) resplit() []Steer {
	q.events = 0
	if q.spec.Kind == query.Max || q.spec.Kind == query.Min {
		return nil
	}
	n := len(q.targets)
	total := 0.0
	for i := range q.rates {
		q.rates[i] = 0.5*q.rates[i] + 0.5*q.counts[i]
		q.counts[i] = 0
		q.scores[i] = math.Cbrt((q.rates[i] + rateFloor) * q.targets[i] * q.targets[i])
		total += q.scores[i]
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil
	}
	budget := keyShare * q.spec.Delta
	if q.spec.Kind == query.Avg {
		budget *= float64(n)
	}
	changed := false
	for i := range q.scores {
		t := budget * q.scores[i] / total
		if d := math.Abs(t - q.targets[i]); d > steerMinRel*q.targets[i] {
			changed = true
		}
		q.scores[i] = t
	}
	if !changed {
		return nil
	}
	// Steer every key, not just the movers: a partial application would
	// break the cap-sum invariant. Shrinks first (most negative move
	// first), so the sum of applied caps never exceeds the budget at any
	// instant of a gradual application.
	type move struct {
		s     Steer
		delta float64
	}
	moves := make([]move, 0, n)
	for i, k := range q.spec.Keys {
		moves = append(moves, move{
			s:     Steer{CacheID: q.cacheID, Key: k, Target: q.scores[i]},
			delta: q.scores[i] - q.targets[i],
		})
		q.targets[i] = q.scores[i]
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].delta < moves[b].delta })
	steers := make([]Steer, 0, n)
	for _, m := range moves {
		steers = append(steers, m.s)
	}
	return steers
}
