package query

import (
	"context"
	"errors"
	"testing"

	"apcache/internal/interval"
	"apcache/internal/workload"
)

// cancelAfter returns a BatchFetch that cancels ctx after n calls, plus a
// counter of rounds actually issued.
func cancelAfter(cancel context.CancelFunc, n int, rounds *int) BatchFetch {
	return func(keys []int) []float64 {
		*rounds++
		if *rounds >= n {
			cancel()
		}
		out := make([]float64, len(keys))
		for i, k := range keys {
			out[i] = float64(k)
		}
		return out
	}
}

func TestExecuteBatchRampCtxStopsMidRamp(t *testing.T) {
	// 64 cached keys whose intervals all overlap, MAX, delta 0, ramp 1:
	// every key must be fetched, one per round (misses would all go out in
	// round 1, so the keys are bounded). Cancelling inside round 2 must
	// stop the refinement before round 3 is issued.
	keys := make([]int, 64)
	for i := range keys {
		keys[i] = i
	}
	overlapping := func(k int) (interval.Interval, bool) {
		return interval.Interval{Lo: 0, Hi: 100 + float64(k)}, true
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	_, err := ExecuteBatchRampCtx(ctx, workload.Query{Kind: workload.Max, Keys: keys, Delta: 0},
		overlapping, cancelAfter(cancel, 2, &rounds), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds != 2 {
		t.Errorf("refinement issued %d rounds after cancel-in-round-2, want exactly 2", rounds)
	}
}

func TestExecuteCtxSumCancelledBeforeFetch(t *testing.T) {
	keys := []int{0, 1, 2}
	none := func(int) (interval.Interval, bool) { return interval.Interval{}, false }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fetched := 0
	_, err := ExecuteCtx(ctx, workload.Query{Kind: workload.Sum, Keys: keys, Delta: 0},
		none, func(k int) float64 { fetched++; return 0 }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fetched != 0 {
		t.Errorf("cancelled SUM still fetched %d keys", fetched)
	}
}

func TestExecuteCtxBackgroundMatchesExecute(t *testing.T) {
	keys := []int{3, 1, 2}
	get := func(k int) (interval.Interval, bool) {
		return interval.Interval{Lo: float64(k) - 1, Hi: float64(k) + 1}, true
	}
	fetch := func(k int) float64 { return float64(k) }
	want := Execute(workload.Query{Kind: workload.Max, Keys: keys, Delta: 0}, get, fetch)
	got, err := ExecuteCtx(context.Background(), workload.Query{Kind: workload.Max, Keys: keys, Delta: 0}, get, fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result != want.Result || len(got.Refreshed) != len(want.Refreshed) {
		t.Errorf("ExecuteCtx = %+v, Execute = %+v", got, want)
	}
}

// TestExecuteCtxStopsBetweenKeysOfOneRound: four uncached keys are one round
// to the planner (the certain set) and four fetches to a per-key caller.
// Cancelling inside the second must leave the third and fourth unissued, and
// the zeros standing in for them must not be answered from — for MAX, where
// the round is the planner's first, and for SUM, where it is its only one.
func TestExecuteCtxStopsBetweenKeysOfOneRound(t *testing.T) {
	none := func(int) (interval.Interval, bool) { return interval.Interval{}, false }
	for _, kind := range []workload.AggKind{workload.Max, workload.Sum} {
		ctx, cancel := context.WithCancel(context.Background())
		fetched := 0
		ans, err := ExecuteCtx(ctx, workload.Query{Kind: kind, Keys: []int{0, 1, 2, 3}, Delta: 100},
			none, func(k int) float64 {
				if fetched++; fetched == 2 {
					cancel()
				}
				return float64(k)
			}, nil)
		if !errors.Is(err, context.Canceled) || ans.Refreshed != nil {
			t.Errorf("%v: answer %+v, err %v; want a zero Answer and context.Canceled", kind, ans, err)
		}
		if fetched != 2 {
			t.Errorf("%v: %d fetches after cancel-in-fetch-2, want exactly 2", kind, fetched)
		}
	}
}
