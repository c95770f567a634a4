// Package cq implements the server-side continuous-query engine: standing
// bounded aggregates (SUM/AVG/MAX/MIN over a key set, precision budget
// Delta) maintained incrementally off the refresh push path.
//
// Each registered query acts as one more cache client inside the server: it
// holds its own per-key width-policy subscriptions under a cache ID the
// server allocates, and the engine indexes queries by that ID alone. The
// connection that registered a query owns it: the server keeps each
// connection's QIDs and their cache IDs, refuses a QID that connection
// already has live, and removes the connection's queries when it ends. The
// engine adds the level above the keys — it splits a keyShare of Delta
// equally into per-key width caps at registration (SUM/AVG; MAX/MIN keep
// Delta per key) and folds every refresh that escapes a cap-clamped interval
// into a running tight aggregate (O(1) for SUM/AVG, winner trees for
// MAX/MIN). A member pair gets no query-initiated refresh after its
// registration read, so its controller only widens: each member's width
// climbs to its cap and stays there, and the adapting happens at the answer.
// The split stays as registered: re-dividing it by observed escape rates
// pays only when members differ in volatility.
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
	// QID is the client-chosen handle, unique among the owner's live
	// queries.
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

// Steer names a per-key width cap for a query's subscription (CacheID).
// The engine never produces one: a query keeps the split it registers with,
// and Observe's steers are always nil. The type stays for callers that still
// compile against that result.
type Steer struct {
	CacheID int
	Key     int
	Target  float64
}

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
	spec Spec
	idx  map[int]int // member key → slot in spec.Keys, and in agg
	agg  aggregator
	// answer is the envelope last sent to the client and value the
	// aggregate center it was sent with; both stand until the next emission.
	answer interval.Interval
	value  float64
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

// Engine maintains every registered standing query, indexed by the cache ID
// its member subscriptions live under. It is not safe for concurrent use:
// the caller guards every method with one lock of its own (the server's
// cqMu, which Observe already needs to order each query's answers).
type Engine struct {
	byCache map[int]*standing
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{byCache: make(map[int]*standing)}
}

// Queries returns the number of registered standing queries.
func (e *Engine) Queries() int {
	return len(e.byCache)
}

// Register installs a standing query under the server-allocated cacheID,
// which no registered query holds. ivs[i] and vals[i] seed key
// spec.Keys[i]'s current approximation (the caller subscribes and reads the
// keys first, under their shard locks). The returned Update is the
// registration's initial answer: the envelope of the fully seeded aggregate.
func (e *Engine) Register(spec Spec, cacheID int, ivs []interval.Interval, vals []float64) Update {
	q := &standing{
		spec: spec,
		idx:  make(map[int]int, len(spec.Keys)),
		agg:  newAggregator(spec.Kind, len(spec.Keys)),
	}
	for i, k := range spec.Keys {
		q.idx[k] = i
		q.agg.Update(i, ivs[i], vals[i])
	}
	if len(spec.Keys) > 0 { // the extreme of no keys does not exist
		q.seal(q.agg.Result())
	}
	e.byCache[cacheID] = q
	return Update{Owner: spec.Owner, QID: spec.QID, Value: q.value, Iv: q.answer}
}

// Remove unregisters the query held under cacheID and returns its member
// keys, whose subscriptions under cacheID the caller removes (none when no
// query holds cacheID).
func (e *Engine) Remove(cacheID int) []int {
	q := e.byCache[cacheID]
	if q == nil {
		return nil
	}
	delete(e.byCache, cacheID)
	return q.spec.Keys
}

// Observe folds one refresh addressed to cacheID into its query: the
// engine recomputes the tight aggregate incrementally and reports whether
// it left the answer the client holds (emit) along with the replacement to
// push. allowSteer is ignored and steers is always nil: a query keeps the
// per-key caps it registered with (InitialTarget), so there is nothing to
// re-cap. Refreshes whose cacheID is no registered query are ignored.
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
	return up, emit, nil
}
