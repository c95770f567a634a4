package policy

import (
	"math"
	"testing"

	"apcache/internal/core"
)

func TestUncentered(t *testing.T) {
	iv := uncentered(10, 2, 5)
	if iv.Lo != 8 || iv.Hi != 15 {
		t.Fatalf("uncentered(10,2,5) = %v, want [8, 15]", iv)
	}
	half := uncentered(10, math.Inf(1), 3)
	if !math.IsInf(half.Lo, -1) || half.Hi != 13 {
		t.Errorf("uncentered(10,Inf,3) = %v, want [-Inf, 13]", half)
	}
	if half.Width() != math.Inf(1) {
		t.Errorf("half-bounded width = %g, want +Inf", half.Width())
	}
}

func TestUncenteredDirectionalGrowth(t *testing.T) {
	u := NewUncenteredController(theta1Params(), 8, alwaysLow)
	if u.LowerWidth() != 4 || u.UpperWidth() != 4 {
		t.Fatalf("initial widths %g/%g, want 4/4", u.LowerWidth(), u.UpperWidth())
	}
	u.OnValueRefreshAbove()
	if u.UpperWidth() != 8 || u.LowerWidth() != 4 {
		t.Errorf("after above-escape: %g/%g, want lower 4 upper 8", u.LowerWidth(), u.UpperWidth())
	}
	u.OnValueRefreshBelow()
	if u.LowerWidth() != 8 {
		t.Errorf("after below-escape: lower %g, want 8", u.LowerWidth())
	}
}

func TestUncenteredShrinkBothSides(t *testing.T) {
	u := NewUncenteredController(theta1Params(), 8, alwaysLow)
	u.RefreshInterval(core.QueryInitiated, false, 0)
	if u.LowerWidth() != 2 || u.UpperWidth() != 2 {
		t.Errorf("after QIR: %g/%g, want 2/2", u.LowerWidth(), u.UpperWidth())
	}
}

func TestUncenteredInterval(t *testing.T) {
	u := NewUncenteredController(theta1Params(), 8, alwaysLow)
	u.OnValueRefreshAbove() // lower 4, upper 8
	iv := u.NewInterval(100)
	if iv.Lo != 96 || iv.Hi != 108 {
		t.Errorf("interval = %v, want [96, 108]", iv)
	}
	if !iv.Valid(100) {
		t.Errorf("interval does not contain exact value")
	}
}

func TestUncenteredThresholds(t *testing.T) {
	p := theta1Params()
	p.Lambda0 = 6
	p.Lambda1 = 100
	u := NewUncenteredController(p, 8, alwaysLow)
	u.RefreshInterval(core.QueryInitiated, false, 10) // total 4 < lambda0
	iv := u.NewInterval(10)
	if !iv.IsExact() {
		t.Errorf("total below lambda0 should ship exact copy, got %v", iv)
	}
	for i := 0; i < 10; i++ {
		u.RefreshInterval(core.ValueInitiated, i%2 == 0, 10)
	}
	iv = u.NewInterval(10)
	if !iv.IsUnbounded() {
		t.Errorf("total above lambda1 should ship unbounded, got %v", iv)
	}
}

func TestUncenteredDirectionalRefreshInterval(t *testing.T) {
	u := NewUncenteredController(theta1Params(), 8, alwaysLow)
	iv := u.RefreshInterval(core.ValueInitiated, true, 50)
	if iv.Hi-50 != 8 || 50-iv.Lo != 4 {
		t.Errorf("directional refresh interval = %v, want upper 8 lower 4 around 50", iv)
	}
	iv = u.RefreshInterval(core.QueryInitiated, false, 50)
	if 50-iv.Lo != 2 || iv.Hi-50 != 4 {
		t.Errorf("after shrink: %v, want lower 2 upper 4", iv)
	}
}

func TestUncenteredGrowFromZero(t *testing.T) {
	p := theta1Params()
	p.Lambda0 = 3
	u := NewUncenteredController(p, 0, alwaysLow)
	u.OnValueRefreshAbove()
	if u.UpperWidth() != 1.5 {
		t.Errorf("upper width after grow from 0 = %g, want lambda0/2 = 1.5", u.UpperWidth())
	}
	u2 := NewUncenteredController(theta1Params(), 0, alwaysLow)
	u2.OnValueRefreshBelow()
	if u2.LowerWidth() != 0.5 {
		t.Errorf("lower width after grow from 0 with lambda0=0 = %g, want 0.5", u2.LowerWidth())
	}
}

func TestHistoryControllerMajorityRule(t *testing.T) {
	h := NewHistoryController(theta1Params(), 8, 3)
	// Window fills: VIR, VIR -> majority VIR each time -> grow twice.
	h.OnRefresh(core.ValueInitiated) // window [V] -> grow -> 16
	h.OnRefresh(core.ValueInitiated) // window [V,V] -> grow -> 32
	if h.Width() != 32 {
		t.Fatalf("width = %g, want 32", h.Width())
	}
	h.OnRefresh(core.QueryInitiated) // [V,V,Q]: majority VIR -> grow -> 64
	if h.Width() != 64 {
		t.Fatalf("width = %g, want 64 (majority still VIR)", h.Width())
	}
	h.OnRefresh(core.QueryInitiated) // [V,Q,Q]: majority QIR -> shrink -> 32
	if h.Width() != 32 {
		t.Fatalf("width = %g, want 32", h.Width())
	}
	h.OnRefresh(core.QueryInitiated) // [Q,Q,Q] -> shrink -> 16
	if h.Width() != 16 {
		t.Fatalf("width = %g, want 16", h.Width())
	}
}

func TestHistoryControllerTieShrinks(t *testing.T) {
	h := NewHistoryController(theta1Params(), 8, 2)
	h.OnRefresh(core.ValueInitiated) // [V] majority -> 16
	h.OnRefresh(core.QueryInitiated) // [V,Q] tie -> shrink -> 8
	if h.Width() != 8 {
		t.Errorf("width after tie = %g, want 8", h.Width())
	}
}

func TestHistoryControllerInterval(t *testing.T) {
	h := NewHistoryController(theta1Params(), 8, 1)
	iv := h.RefreshInterval(core.QueryInitiated, false, 1)
	if iv.Width() != 4 || !iv.Valid(1) {
		t.Errorf("history interval = %v, want width 4 containing 1", iv)
	}
}

func TestHistoryControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("r=0 did not panic")
		}
	}()
	NewHistoryController(theta1Params(), 1, 0)
}

func TestVariantPanics(t *testing.T) {
	cases := []func(){
		func() { NewUncenteredController(core.Params{Cvr: -1, Cqr: 1}, 1, alwaysLow) },
		func() { NewUncenteredController(theta1Params(), 1, nil) },
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
