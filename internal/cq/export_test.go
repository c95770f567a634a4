package cq

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
