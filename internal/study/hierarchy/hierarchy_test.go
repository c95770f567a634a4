package hierarchy

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apcache/internal/aperrs"
	"apcache/internal/core"
	"apcache/internal/interval"
)

// fire always triggers probabilistic adjustments.
type fire struct{}

func (fire) Float64() float64 { return 0 }

func config(levels int) Config {
	return Config{
		Levels:       levels,
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 8,
		RNG:          fire{},
	}
}

func TestTrackEstablishesInvariant(t *testing.T) {
	h, err := New(config(3))
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 100)
	if err := h.CheckInvariant(0); err != nil {
		t.Fatalf("invariant after Track: %v", err)
	}
	for l := 0; l < 3; l++ {
		iv, ok := h.At(l, 0)
		if !ok || !iv.Valid(100) {
			t.Errorf("level %d: %v, %v", l, iv, ok)
		}
	}
	if _, ok := h.Top(0); !ok {
		t.Errorf("Top missing")
	}
	if v, ok := h.Value(0); !ok || v != 100 {
		t.Errorf("Value = %g, %v", v, ok)
	}
}

func TestSetPropagatesOnlyAsFarAsNeeded(t *testing.T) {
	h, err := New(config(2))
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 100) // both levels [96, 104]
	// Small move inside level 0: no refresh anywhere.
	if n := h.Set(0, 101); n != 0 {
		t.Errorf("in-interval update refreshed %d levels", n)
	}
	// Escape both levels: both refresh.
	if n := h.Set(0, 200); n != 2 {
		t.Errorf("full escape refreshed %d levels, want 2", n)
	}
	if err := h.CheckInvariant(0); err != nil {
		t.Fatalf("invariant after escape: %v", err)
	}
	st := h.Stats()
	if st.ValueHops != 2 || st.Cost != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestSetPartialPropagation(t *testing.T) {
	// After a query narrows the lower level, a small escape refreshes
	// level 0 but can stop below the (wider) top.
	h, err := New(config(2))
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 100)
	// Narrow the chain: read exactly.
	h.Read(0, 0)
	// Grow the top back out by a large escape, then settle.
	h.Set(0, 500)
	if err := h.CheckInvariant(0); err != nil {
		t.Fatal(err)
	}
	l0, _ := h.At(0, 0)
	top, _ := h.Top(0)
	if !top.Contains(l0) {
		t.Fatalf("containment broken: top %v, level0 %v", top, l0)
	}
}

func TestReadFromTopWhenPreciseEnough(t *testing.T) {
	h, err := New(config(3))
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 100)
	before := h.Stats()
	iv := h.Read(0, 1000) // top width ~8-24 <= 1000
	if !iv.Valid(100) {
		t.Fatalf("answer %v excludes value", iv)
	}
	if h.Stats().QueryHops != before.QueryHops {
		t.Errorf("top-level answer charged %d hops", h.Stats().QueryHops-before.QueryHops)
	}
}

func TestReadDescendsToSourceForExact(t *testing.T) {
	h, err := New(config(3))
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 100)
	iv := h.Read(0, 0)
	if !iv.IsExact() || iv.Lo != 100 {
		t.Fatalf("exact read = %v", iv)
	}
	// Crossed all 3 levels.
	if got := h.Stats().QueryHops; got != 3 {
		t.Errorf("query hops = %d, want 3", got)
	}
	if err := h.CheckInvariant(0); err != nil {
		t.Fatalf("invariant after exact read: %v", err)
	}
	// Repeated exact reads shrink every level's controller width.
	top0, _ := h.Top(0)
	for i := 0; i < 4; i++ {
		h.Read(0, 0)
	}
	top1, _ := h.Top(0)
	if top1.Width() >= top0.Width() {
		t.Errorf("top width %g did not shrink from %g under exact reads", top1.Width(), top0.Width())
	}
}

func TestReadStopsAtSufficientMiddleLevel(t *testing.T) {
	h, err := New(config(3))
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 100)
	// Narrow everything via exact reads, then widen only the top by
	// repeated small escapes... instead, directly test: after one exact
	// read, all levels are narrow; a moderately tight read is served high.
	h.Read(0, 0)
	before := h.Stats().QueryHops
	h.Read(0, 1e6)
	if h.Stats().QueryHops != before {
		t.Errorf("wide read descended unnecessarily")
	}
}

func TestUpdatesThenQueriesKeepInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := config(4)
	cfg.RNG = rng
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 0)
	v := 0.0
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			v += rng.Float64()*20 - 10
			h.Set(0, v)
		case 2:
			delta := rng.Float64() * 50
			iv := h.Read(0, delta)
			if !iv.Valid(v) {
				t.Fatalf("step %d: answer %v excludes %g", i, iv, v)
			}
			if iv.Width() > delta+1e-9 {
				t.Fatalf("step %d: answer width %g > delta %g", i, iv.Width(), delta)
			}
		}
		if err := h.CheckInvariant(0); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestHierarchyAbsorbsChurn(t *testing.T) {
	// The point of adaptive widths in a hierarchy: a fluctuating value
	// refreshes the chain far less often than it changes, and queries with
	// achievable constraints are mostly served without descending to the
	// source.
	rng := rand.New(rand.NewSource(4))
	cfg := config(3)
	cfg.RNG = rng
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Track(0, 0)
	v := 0.0
	const updates = 5000
	queries := 0
	for i := 0; i < updates; i++ {
		v += rng.Float64()*2 - 1
		h.Set(0, v)
		if i%10 == 0 {
			h.Read(0, 5+rng.Float64()*20)
			queries++
		}
	}
	st := h.Stats()
	// Churn absorption: value-initiated hops stay well below one per
	// update per level.
	if float64(st.ValueHops) > 0.3*float64(updates*cfg.Levels) {
		t.Errorf("value hops %d for %d updates x %d levels: no absorption",
			st.ValueHops, updates, cfg.Levels)
	}
	// Query locality: average descent well below a full walk to source.
	if float64(st.QueryHops) > 0.7*float64(queries*cfg.Levels) {
		t.Errorf("query hops %d for %d queries x %d levels: queries not served high",
			st.QueryHops, queries, cfg.Levels)
	}
}

func TestConfigValidate(t *testing.T) {
	good := config(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Levels: 0, Params: good.Params, InitialWidth: 1, RNG: fire{}},
		{Levels: 1, Params: core.Params{Cvr: -1, Cqr: 1}, InitialWidth: 1, RNG: fire{}},
		{Levels: 1, Params: good.Params, InitialWidth: -1, RNG: fire{}},
		{Levels: 1, Params: good.Params, InitialWidth: 1, RNG: nil},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestPanicsOnUnknownKey(t *testing.T) {
	h, _ := New(config(2))
	cases := []func(){
		func() { h.Set(9, 1) },
		func() { h.Read(9, 1) },
		func() { h.At(5, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
	if err := h.CheckInvariant(9); !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Errorf("CheckInvariant of unknown key: err = %v, want ErrUnknownKey match", err)
	}
}

func TestReadCtx(t *testing.T) {
	h, _ := New(config(3))
	h.Track(1, 50)
	// A successful context read matches Read's contract.
	iv, err := h.ReadCtx(context.Background(), 1, 0.5)
	if err != nil {
		t.Fatalf("ReadCtx: %v", err)
	}
	if !iv.Valid(50) || iv.Width() > 0.5 {
		t.Errorf("interval %v, want valid for 50 with width <= 0.5", iv)
	}
	// Unknown keys fail typed instead of panicking.
	if _, err := h.ReadCtx(context.Background(), 9, 1); !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Errorf("unknown key err = %v, want ErrUnknownKey match", err)
	}
	// A done context fails without charging refresh hops.
	before := h.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.ReadCtx(ctx, 1, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled err = %v, want context.Canceled", err)
	}
	if after := h.Stats(); after != before {
		t.Errorf("cancelled ReadCtx charged hops: %+v -> %+v", before, after)
	}
}

func TestQuickInvariantUnderRandomOps(t *testing.T) {
	f := func(seed int64, levelsRaw uint8, ops []byte) bool {
		levels := int(levelsRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		cfg := config(levels)
		cfg.RNG = rng
		h, err := New(cfg)
		if err != nil {
			return false
		}
		h.Track(0, 0)
		v := 0.0
		for _, op := range ops {
			if op%2 == 0 {
				v += float64(int8(op))
				h.Set(0, v)
			} else {
				h.Read(0, float64(op))
			}
			if h.CheckInvariant(0) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnion(t *testing.T) {
	a := interval.Interval{Lo: 0, Hi: 10}
	b := interval.Interval{Lo: 5, Hi: 15}
	if un := union(a, b); un.Lo != 0 || un.Hi != 15 {
		t.Errorf("union = %v, want [0, 15]", un)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	// ordered builds an interval from two arbitrary floats, NaN read as 0.
	ordered := func(a, b float64) interval.Interval {
		if math.IsNaN(a) {
			a = 0
		}
		if math.IsNaN(b) {
			b = 0
		}
		return interval.Interval{Lo: math.Min(a, b), Hi: math.Max(a, b)}
	}
	f := func(a1, a2, b1, b2 float64) bool {
		a, b := ordered(a1, a2), ordered(b1, b2)
		u := union(a, b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
