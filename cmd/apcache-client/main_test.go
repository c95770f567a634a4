package main

import (
	"math/rand"
	"testing"

	"apcache/internal/query"
)

// TestNextQueryDrawsThePaperLoad checks each drawn query: the requested
// kind, perQuery distinct keys in range, and a constraint inside
// [davg*(1-sigma), davg*(1+sigma)]; davg = 0 asks for exact answers.
func TestNextQueryDrawsThePaperLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		q := nextQuery(rng, query.Max, 20, 10, 100, 0.5)
		if q.Kind != query.Max || len(q.Keys) != 10 {
			t.Fatalf("query %d: %v over %d keys, want MAX over 10", i, q.Kind, len(q.Keys))
		}
		seen := make(map[int]bool)
		for _, k := range q.Keys {
			if k < 0 || k >= 20 || seen[k] {
				t.Fatalf("query %d: keys %v not distinct in [0, 20)", i, q.Keys)
			}
			seen[k] = true
		}
		if q.Delta < 50 || q.Delta > 150 {
			t.Fatalf("query %d: delta %g outside [50, 150]", i, q.Delta)
		}
	}
	if q := nextQuery(rng, query.Sum, 5, 5, 0, 1); q.Delta != 0 || len(q.Keys) != 5 {
		t.Errorf("davg 0: delta %g over %d keys, want 0 over 5", q.Delta, len(q.Keys))
	}
}
