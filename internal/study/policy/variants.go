// Package policy holds the width policies and the cost model that only the
// paper's performance study runs: the fixed-width controller of the Section
// 4.2 sweeps, two of the Section 4.5 variants (with the uncentered interval
// shape the first of them ships) and the Appendix A analytical model. The
// serving system runs core.Controller alone.
package policy

import (
	"math"

	"apcache/internal/core"
	"apcache/internal/interval"
)

// This file implements two of the algorithm variants of Section 4.5, which
// the paper found unsuccessful in the general case but worth reporting:
// uncentered intervals and refresh-history windows. (Its time-varying
// intervals are not implemented: no experiment here runs them.)

// UncenteredController maintains independent lower and upper widths
// (Section 4.5): a value-initiated refresh caused by the value exceeding the
// upper bound grows only the upper width (with probability min(theta,1)),
// one caused by dropping below the lower bound grows only the lower width,
// and a query-initiated refresh shrinks both widths (with probability
// min(1/theta,1)).
type UncenteredController struct {
	params core.Params
	lower  float64
	upper  float64
	rng    core.Rand
}

// NewUncenteredController returns an uncentered controller with both widths
// set to half the given total initial width, matching the centered starting
// point.
func NewUncenteredController(params core.Params, initialWidth float64, rng core.Rand) *UncenteredController {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("policy: nil Rand")
	}
	return &UncenteredController{params: params, lower: initialWidth / 2, upper: initialWidth / 2, rng: rng}
}

// Width returns the total stored width (lower + upper).
func (u *UncenteredController) Width() float64 { return u.lower + u.upper }

// LowerWidth returns the stored distance from the exact value down to Lo.
func (u *UncenteredController) LowerWidth() float64 { return u.lower }

// UpperWidth returns the stored distance from the exact value up to Hi.
func (u *UncenteredController) UpperWidth() float64 { return u.upper }

// OnValueRefreshAbove handles a value-initiated refresh triggered by the
// value exceeding the upper bound.
func (u *UncenteredController) OnValueRefreshAbove() {
	if u.rng.Float64() < u.params.GrowProbability() {
		u.upper = growWidth(u.params, u.upper)
	}
}

// OnValueRefreshBelow handles a value-initiated refresh triggered by the
// value dropping below the lower bound.
func (u *UncenteredController) OnValueRefreshBelow() {
	if u.rng.Float64() < u.params.GrowProbability() {
		u.lower = growWidth(u.params, u.lower)
	}
}

// NewInterval builds the (possibly asymmetric) interval around v with
// thresholds applied to the total width: a total below Lambda0 collapses to
// the exact copy and a total at or above Lambda1 becomes unbounded.
func (u *UncenteredController) NewInterval(v float64) interval.Interval {
	total := u.Width()
	if total < u.params.Lambda0 {
		return interval.Exact(v)
	}
	if total >= u.params.Lambda1 {
		return interval.Unbounded()
	}
	return uncentered(v, u.lower, u.upper)
}

// uncentered returns the interval [v-below, v+above]; an infinite width
// leaves that side unbounded.
func uncentered(v, below, above float64) interval.Interval {
	lo := v - below
	hi := v + above
	if math.IsInf(below, 1) {
		lo = math.Inf(-1)
	}
	if math.IsInf(above, 1) {
		hi = math.Inf(1)
	}
	return interval.Interval{Lo: lo, Hi: hi}
}

// RefreshInterval applies the directional adjustment and returns the new
// interval around v: above reports whether the escape was past the upper
// bound (only meaningful for value-initiated refreshes).
func (u *UncenteredController) RefreshInterval(kind core.RefreshKind, above bool, v float64) interval.Interval {
	if kind == core.ValueInitiated {
		if above {
			u.OnValueRefreshAbove()
		} else {
			u.OnValueRefreshBelow()
		}
	} else {
		if u.rng.Float64() < u.params.ShrinkProbability() {
			u.upper /= 1 + u.params.Alpha
			u.lower /= 1 + u.params.Alpha
		}
	}
	return u.NewInterval(v)
}

func growWidth(p core.Params, w float64) float64 {
	if w == 0 {
		if p.Lambda0 > 0 {
			return p.Lambda0 / 2
		}
		return 0.5
	}
	return w * (1 + p.Alpha)
}

var _ core.WidthPolicy = (*UncenteredController)(nil)

// HistoryController implements the third Section 4.5 variant: it considers
// the r most recent refreshes and grows the width when the majority were
// value-initiated, shrinking it otherwise. The paper's main algorithm is the
// r = 1 special case (with the probabilistic gates added); this variant is
// deterministic over the window.
type HistoryController struct {
	params core.Params
	width  float64
	window []core.RefreshKind
	r      int
}

// NewHistoryController returns a history-window controller considering the
// last r refreshes.
func NewHistoryController(params core.Params, initialWidth float64, r int) *HistoryController {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if r < 1 {
		panic("policy: history window must be >= 1")
	}
	return &HistoryController{params: params, width: initialWidth, r: r}
}

// Width returns the stored width.
func (h *HistoryController) Width() float64 { return h.width }

// EffectiveWidth applies thresholds.
func (h *HistoryController) EffectiveWidth() float64 { return core.EffectiveWidth(h.params, h.width) }

// OnRefresh records the refresh and applies the majority rule once the
// window is full.
func (h *HistoryController) OnRefresh(kind core.RefreshKind) float64 {
	h.window = append(h.window, kind)
	if len(h.window) > h.r {
		h.window = h.window[1:]
	}
	vir := 0
	for _, k := range h.window {
		if k == core.ValueInitiated {
			vir++
		}
	}
	if 2*vir > len(h.window) {
		if h.width == 0 {
			h.width = math.Max(h.params.Lambda0, 1)
		} else {
			h.width *= 1 + h.params.Alpha
		}
	} else {
		h.width /= 1 + h.params.Alpha
	}
	return h.EffectiveWidth()
}

// NewInterval ships the current-width interval centered on v.
func (h *HistoryController) NewInterval(v float64) interval.Interval {
	return interval.Centered(v, h.EffectiveWidth())
}

// RefreshInterval is OnRefresh followed by NewInterval; the escape direction
// does not matter to a centered interval.
func (h *HistoryController) RefreshInterval(kind core.RefreshKind, _ bool, v float64) interval.Interval {
	h.OnRefresh(kind)
	return h.NewInterval(v)
}

var _ core.WidthPolicy = (*HistoryController)(nil)
