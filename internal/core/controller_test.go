package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// seqRand replays a fixed sequence of variates, then repeats the last one.
type seqRand struct {
	vals []float64
	i    int
}

func (s *seqRand) Float64() float64 {
	if s.i < len(s.vals) {
		v := s.vals[s.i]
		s.i++
		return v
	}
	if len(s.vals) == 0 {
		return 0
	}
	return s.vals[len(s.vals)-1]
}

// alwaysLow always fires probabilistic adjustments; alwaysHigh never does.
var (
	alwaysLow  = &seqRand{vals: []float64{0}}
	alwaysHigh = &seqRand{vals: []float64{0.999999}}
)

func theta1Params() Params {
	return Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
}

func TestControllerGrowOnValueRefresh(t *testing.T) {
	c := NewController(theta1Params(), 4, &seqRand{vals: []float64{0}})
	got := c.OnRefresh(ValueInitiated)
	if got != 8 {
		t.Fatalf("width after VIR = %g, want 8 (doubled with alpha=1)", got)
	}
}

func TestControllerShrinkOnQueryRefresh(t *testing.T) {
	c := NewController(theta1Params(), 4, &seqRand{vals: []float64{0}})
	got := c.OnRefresh(QueryInitiated)
	if got != 2 {
		t.Fatalf("width after QIR = %g, want 2 (halved with alpha=1)", got)
	}
}

func TestControllerAlphaControlsMagnitude(t *testing.T) {
	p := theta1Params()
	p.Alpha = 0.5
	c := NewController(p, 8, alwaysLow)
	if got := c.OnRefresh(ValueInitiated); got != 12 {
		t.Errorf("alpha=0.5 grow: width = %g, want 12", got)
	}
	c2 := NewController(p, 12, alwaysLow)
	if got := c2.OnRefresh(QueryInitiated); got != 8 {
		t.Errorf("alpha=0.5 shrink: width = %g, want 8", got)
	}
}

func TestControllerAlphaZeroFreezes(t *testing.T) {
	p := theta1Params()
	p.Alpha = 0
	c := NewController(p, 5, alwaysLow)
	c.OnRefresh(ValueInitiated)
	c.OnRefresh(QueryInitiated)
	if c.Width() != 5 {
		t.Errorf("alpha=0 changed width to %g", c.Width())
	}
}

func TestThetaGatesAdjustments(t *testing.T) {
	// theta = 4: grow always, shrink with probability 1/4.
	p := Params{Cvr: 4, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)}
	// Variate 0.3 >= 1/4 so the shrink must NOT fire.
	c := NewController(p, 8, &seqRand{vals: []float64{0.3}})
	if got := c.OnRefresh(QueryInitiated); got != 8 {
		t.Errorf("shrink fired with variate 0.3 >= 1/theta=0.25: width %g", got)
	}
	// Variate 0.2 < 1/4 so the shrink must fire.
	c2 := NewController(p, 8, &seqRand{vals: []float64{0.2}})
	if got := c2.OnRefresh(QueryInitiated); got != 4 {
		t.Errorf("shrink missed with variate 0.2 < 0.25: width %g", got)
	}
	// Grows are unconditional at theta >= 1 even with a high variate.
	c3 := NewController(p, 8, alwaysHigh)
	if got := c3.OnRefresh(ValueInitiated); got != 16 {
		t.Errorf("grow suppressed at theta=4: width %g", got)
	}
}

func TestThetaBelowOneGatesGrow(t *testing.T) {
	// theta = 0.5: shrink always, grow with probability 1/2.
	p := Params{Cvr: 0.5, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)}
	c := NewController(p, 8, &seqRand{vals: []float64{0.7}})
	if got := c.OnRefresh(ValueInitiated); got != 8 {
		t.Errorf("grow fired with variate 0.7 >= theta=0.5: width %g", got)
	}
	c2 := NewController(p, 8, &seqRand{vals: []float64{0.7}})
	if got := c2.OnRefresh(QueryInitiated); got != 4 {
		t.Errorf("shrink suppressed at theta=0.5: width %g", got)
	}
}

func TestLowerThreshold(t *testing.T) {
	p := theta1Params()
	p.Lambda0 = 3
	c := NewController(p, 4, alwaysLow)
	// 4/2 = 2 < lambda0=3 -> effective 0, original retained at 2.
	if got := c.OnRefresh(QueryInitiated); got != 0 {
		t.Fatalf("effective width = %g, want 0 below lambda0", got)
	}
	if c.Width() != 2 {
		t.Fatalf("original width = %g, want 2 retained", c.Width())
	}
	// Next VIR doubles the original 2 -> 4 >= lambda0, back to real interval.
	if got := c.OnRefresh(ValueInitiated); got != 4 {
		t.Errorf("width after recovery = %g, want 4", got)
	}
}

func TestUpperThreshold(t *testing.T) {
	p := theta1Params()
	p.Lambda1 = 10
	c := NewController(p, 6, alwaysLow)
	// 6*2 = 12 >= lambda1 -> effective +Inf, original retained at 12.
	got := c.OnRefresh(ValueInitiated)
	if !math.IsInf(got, 1) {
		t.Fatalf("effective width = %g, want +Inf at/above lambda1", got)
	}
	if c.Width() != 12 {
		t.Fatalf("original width = %g, want 12 retained", c.Width())
	}
	// Shrinks resume from the original width: 12/2 = 6 < lambda1.
	if got := c.OnRefresh(QueryInitiated); got != 6 {
		t.Errorf("width after shrink = %g, want 6", got)
	}
}

func TestExactCachingSpecialCase(t *testing.T) {
	// lambda1 = lambda0 forces every width to 0 or Inf: the algorithm
	// degenerates to a cache/don't-cache decision (Section 2, Section 4.6).
	p := theta1Params()
	p.Lambda0 = 5
	p.Lambda1 = 5
	c := NewController(p, 1, alwaysLow)
	for i := 0; i < 50; i++ {
		var w float64
		if i%2 == 0 {
			w = c.OnRefresh(ValueInitiated)
		} else {
			w = c.OnRefresh(QueryInitiated)
		}
		if w != 0 && !math.IsInf(w, 1) {
			t.Fatalf("effective width %g is neither 0 nor Inf with lambda0=lambda1", w)
		}
	}
}

func TestGrowFromZeroWidthReseeds(t *testing.T) {
	p := theta1Params()
	p.Lambda0 = 2
	c := NewController(p, 0, alwaysLow)
	c.OnRefresh(ValueInitiated)
	if c.Width() != 2 {
		t.Errorf("width after grow from 0 = %g, want lambda0=2", c.Width())
	}
	// With lambda0 = 0 the reseed falls back to 1.
	c2 := NewController(theta1Params(), 0, alwaysLow)
	c2.OnRefresh(ValueInitiated)
	if c2.Width() != 1 {
		t.Errorf("width after grow from 0 with lambda0=0 = %g, want 1", c2.Width())
	}
}

func TestNewIntervalCentered(t *testing.T) {
	c := NewController(theta1Params(), 10, alwaysLow)
	iv := c.NewInterval(100)
	if iv.Lo != 95 || iv.Hi != 105 {
		t.Errorf("NewInterval(100) = %v, want [95, 105]", iv)
	}
	if iv.Center() != 100 {
		t.Errorf("center = %g, want 100", iv.Center())
	}
}

func TestRefreshInterval(t *testing.T) {
	c := NewController(theta1Params(), 10, alwaysLow)
	iv := c.RefreshInterval(QueryInitiated, false, 100)
	if iv.Width() != 5 {
		t.Errorf("refreshed width = %g, want 5", iv.Width())
	}
	if !iv.Valid(100) {
		t.Errorf("refreshed interval %v does not contain the exact value", iv)
	}
}

func TestControllerPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewController(Params{Cvr: -1, Cqr: 1}, 1, alwaysLow) },
		func() { NewController(theta1Params(), -1, alwaysLow) },
		func() { NewController(theta1Params(), 1, nil) },
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
}

func TestSetWidth(t *testing.T) {
	c := NewController(theta1Params(), 1, alwaysLow)
	c.SetWidth(42)
	if c.Width() != 42 {
		t.Errorf("SetWidth did not stick: %g", c.Width())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("SetWidth(-1) did not panic")
		}
	}()
	c.SetWidth(-1)
}

func TestQuickWidthStaysPositive(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewController(theta1Params(), 1, rng)
		for i := 0; i < int(steps); i++ {
			if rng.Intn(2) == 0 {
				c.OnRefresh(ValueInitiated)
			} else {
				c.OnRefresh(QueryInitiated)
			}
			if c.Width() <= 0 || math.IsNaN(c.Width()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEffectiveWidthThresholding(t *testing.T) {
	f := func(w, l0, l1 float64) bool {
		w = math.Abs(w)
		l0 = math.Abs(l0)
		l1 = math.Abs(l1)
		if math.IsNaN(w) || math.IsNaN(l0) || math.IsNaN(l1) {
			return true
		}
		if l1 < l0 {
			l0, l1 = l1, l0
		}
		p := Params{Cvr: 1, Cqr: 2, Lambda0: l0, Lambda1: l1}
		got := EffectiveWidth(p, w)
		switch {
		case w < l0:
			return got == 0
		case w >= l1:
			return math.IsInf(got, 1)
		default:
			return got == w
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickShippedIntervalAlwaysValid(t *testing.T) {
	f := func(seed int64, v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		p := Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0.5, Lambda1: 100}
		c := NewController(p, 1, rng)
		for i := 0; i < 32; i++ {
			kind := ValueInitiated
			if rng.Intn(2) == 0 {
				kind = QueryInitiated
			}
			iv := c.RefreshInterval(kind, false, v)
			if !iv.Valid(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
