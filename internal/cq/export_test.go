package cq

import "apcache/internal/interval"

// Answer returns the answer the query's client holds: the envelope last
// emitted and the aggregate center it carried.
func (e *Engine) Answer(owner int, qid uint64) (interval.Interval, float64, bool) {
	q := e.byOwner[owner][qid]
	if q == nil {
		return interval.Interval{}, 0, false
	}
	return q.answer, q.value, true
}

// Targets returns a copy of the query's current per-key width targets in
// spec.Keys order.
func (e *Engine) Targets(owner int, qid uint64) ([]float64, bool) {
	q := e.byOwner[owner][qid]
	if q == nil {
		return nil, false
	}
	out := make([]float64, len(q.targets))
	copy(out, q.targets)
	return out, true
}
