package query

import (
	"context"
	"testing"

	"apcache/internal/interval"
	"apcache/internal/workload"
)

// TestPlannerAllocs pins the planner's own allocations: none for a query the
// cache answers, and exactly one, the caller's Answer.Refreshed, for a query
// that fetches, however many rounds it takes — none when ExecuteCtx is given
// room for the fetched keys.
func TestPlannerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 64
	keys := make([]int, n)
	for k := range keys {
		keys[k] = k
	}
	get := func(k int) (interval.Interval, bool) { return interval.Centered(float64(k%7), 4), true }
	fetch := func(k int) float64 { return float64(k % 7) }
	vals := make([]float64, n)
	batch := func(ks []int) []float64 {
		for i, k := range ks {
			vals[i] = fetch(k)
		}
		return vals[:len(ks)]
	}
	for _, kind := range []workload.AggKind{workload.Sum, workload.Avg, workload.Max, workload.Min} {
		for _, tc := range []struct {
			delta float64
			want  float64
		}{{1e9, 0}, {0, 1}} {
			q := workload.Query{Kind: kind, Keys: keys, Delta: tc.delta}
			if got := testing.AllocsPerRun(200, func() { Execute(q, get, fetch) }); got != tc.want {
				t.Errorf("Execute %v delta %g: %v allocs, want %v", kind, tc.delta, got, tc.want)
			}
			if got := testing.AllocsPerRun(200, func() { ExecuteBatchRamp(q, get, batch, DefaultRamp) }); got != tc.want {
				t.Errorf("ExecuteBatchRamp %v delta %g: %v allocs, want %v", kind, tc.delta, got, tc.want)
			}
			if got := testing.AllocsPerRun(200, func() {
				var room [n]int
				ExecuteCtx(context.Background(), q, get, fetch, room[:0])
			}); got != 0 {
				t.Errorf("ExecuteCtx %v delta %g with room: %v allocs, want 0", kind, tc.delta, got)
			}
		}
	}
}
