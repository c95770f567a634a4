package query

import (
	"context"
	"testing"

	"apcache/internal/interval"
)

// TestPlannerAllocs pins the planner's own allocations: none for a query the
// held intervals answer, and none for a query that fetches, however many
// rounds it takes, when the caller lends room for the fetched keys — the
// way both hosts call Plan. The wrappers lend none, so a fetching query pays
// exactly one allocation there, its Answer.Refreshed.
func TestPlannerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 64
	keys := make([]int, n)
	held := make([]interval.Interval, n)
	for k := range keys {
		keys[k] = k
		held[k] = interval.Centered(float64(k%7), 4)
	}
	get := func(k int) (interval.Interval, bool) { return held[k], true }
	fetch := func(k int) float64 { return float64(k % 7) }
	fill := func(ks []int, vals []float64) {
		for i, k := range ks {
			vals[i] = fetch(k)
		}
	}
	vals := make([]float64, n)
	batch := func(ks []int) []float64 {
		fill(ks, vals[:len(ks)])
		return vals[:len(ks)]
	}
	for _, kind := range []AggKind{Sum, Avg, Max, Min} {
		for _, delta := range []float64{1e9, 0} {
			q := Query{Kind: kind, Keys: keys, Delta: delta}
			for _, ramp := range []float64{1, DefaultRamp} {
				if got := testing.AllocsPerRun(200, func() {
					var room [n]int
					Plan(context.Background(), q, held, fill, ramp, room[:0])
				}); got != 0 {
					t.Errorf("Plan %v delta %g ramp %g with room: %v allocs, want 0", kind, delta, ramp, got)
				}
			}
			want := 0.0
			if delta == 0 {
				want = 1
			}
			if got := testing.AllocsPerRun(200, func() { Execute(q, get, fetch) }); got != want {
				t.Errorf("Execute %v delta %g: %v allocs, want %v", kind, delta, got, want)
			}
			if got := testing.AllocsPerRun(200, func() { ExecuteBatchRamp(q, get, batch, DefaultRamp) }); got != want {
				t.Errorf("ExecuteBatchRamp %v delta %g: %v allocs, want %v", kind, delta, got, want)
			}
		}
	}
}
