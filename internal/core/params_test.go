package core

import (
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	valid := Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"negative Cvr", Params{Cvr: -1, Cqr: 2}},
		{"zero Cqr", Params{Cvr: 1, Cqr: 0}},
		{"negative Cqr", Params{Cvr: 1, Cqr: -2}},
		{"negative alpha", Params{Cvr: 1, Cqr: 2, Alpha: -0.5}},
		{"negative lambda0", Params{Cvr: 1, Cqr: 2, Lambda0: -1}},
		{"lambda1 below lambda0", Params{Cvr: 1, Cqr: 2, Lambda0: 5, Lambda1: 4}},
		{"NaN Cvr", Params{Cvr: math.NaN(), Cqr: 2}},
		{"NaN alpha", Params{Cvr: 1, Cqr: 2, Alpha: math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err == nil {
				t.Errorf("Validate() accepted %+v", tc.p)
			}
		})
	}
}

func TestTheta(t *testing.T) {
	// Section 4.3: two-phase locking gives Cvr=4, Cqr=2, theta=4;
	// plain update propagation gives Cvr=1, Cqr=2, theta=1.
	cases := []struct{ cvr, cqr, want float64 }{
		{4, 2, 4},
		{1, 2, 1},
		{3, 2, 3},
	}
	for _, tc := range cases {
		p := Params{Cvr: tc.cvr, Cqr: tc.cqr}
		if got := p.Theta(); got != tc.want {
			t.Errorf("Theta(Cvr=%g, Cqr=%g) = %g, want %g", tc.cvr, tc.cqr, got, tc.want)
		}
	}
}

func TestProbabilities(t *testing.T) {
	cases := []struct {
		theta             float64
		wantGrow, wantShr float64
	}{
		{1, 1, 1},
		{4, 1, 0.25},
		{0.5, 0.5, 1},
	}
	for _, tc := range cases {
		// theta = 2*Cvr/Cqr; pick Cqr = 2 so Cvr = theta.
		p := Params{Cvr: tc.theta, Cqr: 2}
		if got := p.GrowProbability(); math.Abs(got-tc.wantGrow) > 1e-12 {
			t.Errorf("theta=%g GrowProbability = %g, want %g", tc.theta, got, tc.wantGrow)
		}
		if got := p.ShrinkProbability(); math.Abs(got-tc.wantShr) > 1e-12 {
			t.Errorf("theta=%g ShrinkProbability = %g, want %g", tc.theta, got, tc.wantShr)
		}
	}
}

func TestShrinkProbabilityZeroTheta(t *testing.T) {
	p := Params{Cvr: 0, Cqr: 2}
	if got := p.ShrinkProbability(); got != 1 {
		t.Errorf("ShrinkProbability with theta=0 = %g, want 1", got)
	}
	if got := p.GrowProbability(); got != 0 {
		t.Errorf("GrowProbability with theta=0 = %g, want 0", got)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(1, 2, 1000)
	if p.Alpha != 1 {
		t.Errorf("Alpha = %g, want 1", p.Alpha)
	}
	if p.Lambda0 != 1000 {
		t.Errorf("Lambda0 = %g, want 1000", p.Lambda0)
	}
	if !math.IsInf(p.Lambda1, 1) {
		t.Errorf("Lambda1 = %g, want +Inf", p.Lambda1)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestRefreshKindString(t *testing.T) {
	if ValueInitiated.String() != "value-initiated" {
		t.Errorf("ValueInitiated.String() = %q", ValueInitiated)
	}
	if QueryInitiated.String() != "query-initiated" {
		t.Errorf("QueryInitiated.String() = %q", QueryInitiated)
	}
}
