package query

import (
	"context"
	"errors"
	"slices"
	"testing"

	"apcache/internal/interval"
)

// cancelAfter returns a Fill that cancels ctx in its nth round, plus a
// counter of rounds actually issued.
func cancelAfter(cancel context.CancelFunc, n int, rounds *int) Fill {
	return func(keys []int, vals []float64) {
		*rounds++
		if *rounds >= n {
			cancel()
		}
		for i, k := range keys {
			vals[i] = float64(k)
		}
	}
}

func TestPlanStopsMidRamp(t *testing.T) {
	// 64 held keys whose intervals all overlap, MAX, delta 0, ramp 1:
	// every key must be fetched, one per round (unbounded keys would all go
	// out in round 1, so the keys are bounded). Cancelling inside round 2
	// must stop the refinement before round 3 is issued.
	keys := make([]int, 64)
	held := make([]interval.Interval, len(keys))
	for i := range keys {
		keys[i] = i
		held[i] = interval.Interval{Lo: 0, Hi: 100 + float64(i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	_, err := Plan(ctx, Query{Kind: Max, Keys: keys, Delta: 0},
		held, cancelAfter(cancel, 2, &rounds), 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds != 2 {
		t.Errorf("refinement issued %d rounds after cancel-in-round-2, want exactly 2", rounds)
	}
}

func TestPlanSumCancelledBeforeFetch(t *testing.T) {
	keys := []int{0, 1, 2}
	held := []interval.Interval{interval.Unbounded(), interval.Unbounded(), interval.Unbounded()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rounds := 0
	_, err := Plan(ctx, Query{Kind: Sum, Keys: keys, Delta: 0},
		held, func([]int, []float64) { rounds++ }, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds != 0 {
		t.Errorf("cancelled SUM still filled %d rounds", rounds)
	}
}

// TestPlanBackgroundMatchesExecute: Plan over Held's lookups with a
// per-key fill at ramp 1 is Execute, answer and refresh order alike.
func TestPlanBackgroundMatchesExecute(t *testing.T) {
	keys := []int{3, 1, 2}
	get := func(k int) (interval.Interval, bool) {
		return interval.Interval{Lo: float64(k) - 1, Hi: float64(k) + 1}, k != 2
	}
	fetch := func(k int) float64 { return float64(k) }
	for _, kind := range []AggKind{Sum, Avg, Max, Min} {
		q := Query{Kind: kind, Keys: keys, Delta: 0}
		want := Execute(q, get, fetch)
		got, err := Plan(context.Background(), q, Held(nil, keys, get), func(ks []int, vals []float64) {
			for i, k := range ks {
				vals[i] = fetch(k)
			}
		}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result != want.Result || !slices.Equal(got.Refreshed, want.Refreshed) {
			t.Errorf("%v: Plan = %+v, Execute = %+v", kind, got, want)
		}
	}
}

// TestPlanRefreshedInCallersArray: Answer.Refreshed lives in the array the
// caller lends when it fits, and in a fresh one when it does not.
func TestPlanRefreshedInCallersArray(t *testing.T) {
	keys := []int{0, 1, 2, 3}
	held := []interval.Interval{interval.Unbounded(), interval.Unbounded(), interval.Unbounded(), interval.Unbounded()}
	fill := func(ks []int, vals []float64) { clear(vals) }
	q := Query{Kind: Sum, Keys: keys, Delta: 0}
	var room [4]int
	ans, err := Plan(context.Background(), q, held, fill, 1, room[:0])
	if err != nil || len(ans.Refreshed) != 4 || &ans.Refreshed[0] != &room[0] {
		t.Errorf("with room: %+v, %v; want the 4 keys in the lent array", ans, err)
	}
	ans, err = Plan(context.Background(), q, held, fill, 1, room[:0:2])
	if err != nil || len(ans.Refreshed) != 4 || &ans.Refreshed[0] == &room[0] {
		t.Errorf("without room: %+v, %v; want the 4 keys in a fresh array", ans, err)
	}
}
