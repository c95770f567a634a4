// Package core implements the adaptive precision-setting algorithm of
// Olston, Loo and Widom (SIGMOD 2001) for cached interval approximations,
// with the stale-count specialization used against Divergence Caching
// (Section 4.7). The Section 4.5 variants, the fixed-width controller and the
// Appendix A cost model are study code, in internal/study/policy.
//
// The central object is the Controller, which maintains the width W of one
// cached approximation and nudges it on every refresh: grown by a factor
// (1+alpha) with probability min(theta, 1) on a value-initiated refresh,
// shrunk by the same factor with probability min(1/theta, 1) on a
// query-initiated refresh, where theta = 2*Cvr/Cqr. The fixed point of this
// process is the width W* minimizing the expected cost rate
// Omega(W) = Cvr*Pvr(W) + Cqr*Pqr(W).
package core

import (
	"fmt"
	"math"
)

// Mode selects how the cost factor theta is derived from the refresh costs.
type Mode int

const (
	// ModeInterval is the paper's primary setting: interval approximations
	// to numeric values, for which Pvr ~ 1/W^2 and hence theta = 2*Cvr/Cqr
	// (Section 2, justified in Section 3 and Appendix A).
	ModeInterval Mode = iota
	// ModeStaleCount is the Divergence Caching specialization (Section 4.7):
	// the "value" counted is the number of unpropagated updates, for which
	// Pvr ~ 1/W and hence theta' = Cvr/Cqr.
	ModeStaleCount
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeInterval:
		return "interval"
	case ModeStaleCount:
		return "stale-count"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Params carries the five algorithm parameters of Section 2 (Table 1).
// Cvr and Cqr are fixed by the environment; Alpha, Lambda0 and Lambda1 tune
// the algorithm.
type Params struct {
	// Cvr is the cost of a value-initiated refresh.
	Cvr float64
	// Cqr is the cost of a query-initiated refresh.
	Cqr float64
	// Alpha >= 0 is the adaptivity parameter: widths are multiplied or
	// divided by (1+Alpha). The paper's recommended setting is 1.
	Alpha float64
	// Lambda0 >= 0 is the lower threshold: computed widths below Lambda0
	// are used as 0 (exact caching).
	Lambda0 float64
	// Lambda1 >= Lambda0 is the upper threshold: computed widths at or
	// above Lambda1 are used as +Inf (effectively uncached). Use
	// math.Inf(1) to disable.
	Lambda1 float64
	// Mode selects the theta formula; the zero value is ModeInterval.
	Mode Mode
}

// DefaultParams returns the settings the performance study recommends for
// general workloads (Section 4.4): alpha = 1, lambda0 = epsilon, lambda1 =
// +Inf. epsilon should be a small width below the smallest meaningful
// nonzero precision constraint (1K for the paper's network data).
func DefaultParams(cvr, cqr, epsilon float64) Params {
	return Params{Cvr: cvr, Cqr: cqr, Alpha: 1, Lambda0: epsilon, Lambda1: math.Inf(1)}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Cvr < 0 || math.IsNaN(p.Cvr):
		return fmt.Errorf("core: Cvr must be >= 0, got %g", p.Cvr)
	case p.Cqr <= 0 || math.IsNaN(p.Cqr):
		return fmt.Errorf("core: Cqr must be > 0, got %g", p.Cqr)
	case p.Alpha < 0 || math.IsNaN(p.Alpha):
		return fmt.Errorf("core: Alpha must be >= 0, got %g", p.Alpha)
	case p.Lambda0 < 0 || math.IsNaN(p.Lambda0):
		return fmt.Errorf("core: Lambda0 must be >= 0, got %g", p.Lambda0)
	case p.Lambda1 < p.Lambda0:
		return fmt.Errorf("core: Lambda1 (%g) must be >= Lambda0 (%g)", p.Lambda1, p.Lambda0)
	case p.Mode != ModeInterval && p.Mode != ModeStaleCount:
		return fmt.Errorf("core: unknown mode %d", int(p.Mode))
	}
	return nil
}

// Theta returns the cost factor: 2*Cvr/Cqr in interval mode (Section 2) and
// Cvr/Cqr in stale-count mode (Section 4.7).
func (p Params) Theta() float64 {
	switch p.Mode {
	case ModeStaleCount:
		return p.Cvr / p.Cqr
	default:
		return 2 * p.Cvr / p.Cqr
	}
}

// GrowProbability returns min(theta, 1), the probability that a
// value-initiated refresh widens the interval.
func (p Params) GrowProbability() float64 { return math.Min(p.Theta(), 1) }

// ShrinkProbability returns min(1/theta, 1), the probability that a
// query-initiated refresh narrows the interval. A theta of zero (free
// value-initiated refreshes) yields probability 1.
func (p Params) ShrinkProbability() float64 {
	th := p.Theta()
	if th <= 0 {
		return 1
	}
	return math.Min(1/th, 1)
}
