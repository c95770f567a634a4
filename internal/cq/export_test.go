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
