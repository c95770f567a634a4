package cq

import "apcache/internal/interval"

// Answer returns the answer the client of the query held under cacheID
// holds: the envelope last emitted and the aggregate center it carried.
func (e *Engine) Answer(cacheID int) (interval.Interval, float64, bool) {
	q := e.byCache[cacheID]
	if q == nil {
		return interval.Interval{}, 0, false
	}
	return q.answer, q.value, true
}
