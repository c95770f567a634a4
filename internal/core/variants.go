package core

import (
	"math"

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
	params Params
	lower  float64
	upper  float64
	rng    Rand
}

// NewUncenteredController returns an uncentered controller with both widths
// set to half the given total initial width, matching the centered starting
// point.
func NewUncenteredController(params Params, initialWidth float64, rng Rand) *UncenteredController {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("core: nil Rand")
	}
	return &UncenteredController{params: params, lower: initialWidth / 2, upper: initialWidth / 2, rng: rng}
}

// Width returns the total stored width (lower + upper).
func (u *UncenteredController) Width() float64 { return u.lower + u.upper }

// LowerWidth returns the stored distance from the exact value down to Lo.
func (u *UncenteredController) LowerWidth() float64 { return u.lower }

// UpperWidth returns the stored distance from the exact value up to Hi.
func (u *UncenteredController) UpperWidth() float64 { return u.upper }

// EffectiveWidth applies thresholding to the total width.
func (u *UncenteredController) EffectiveWidth() float64 {
	return EffectiveWidth(u.params, u.Width())
}

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

// OnRefresh satisfies WidthPolicy. Value-initiated refreshes without
// direction information grow both sides with the grow probability; the
// source engine prefers the directional methods.
func (u *UncenteredController) OnRefresh(kind RefreshKind) float64 {
	if kind == ValueInitiated {
		if u.rng.Float64() < u.params.GrowProbability() {
			u.upper = growWidth(u.params, u.upper)
			u.lower = growWidth(u.params, u.lower)
		}
	} else {
		if u.rng.Float64() < u.params.ShrinkProbability() {
			u.upper /= 1 + u.params.Alpha
			u.lower /= 1 + u.params.Alpha
		}
	}
	return u.EffectiveWidth()
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
	return interval.Uncentered(v, u.lower, u.upper)
}

// RefreshInterval is OnRefresh followed by NewInterval.
func (u *UncenteredController) RefreshInterval(kind RefreshKind, v float64) interval.Interval {
	u.OnRefresh(kind)
	return u.NewInterval(v)
}

// RefreshIntervalDirectional applies the directional adjustment: above
// reports whether the escape was past the upper bound (only meaningful for
// value-initiated refreshes).
func (u *UncenteredController) RefreshIntervalDirectional(kind RefreshKind, above bool, v float64) interval.Interval {
	if kind == ValueInitiated {
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

func growWidth(p Params, w float64) float64 {
	if w == 0 {
		if p.Lambda0 > 0 {
			return p.Lambda0 / 2
		}
		return 0.5
	}
	return w * (1 + p.Alpha)
}

var _ WidthPolicy = (*UncenteredController)(nil)

// HistoryController implements the third Section 4.5 variant: it considers
// the r most recent refreshes and grows the width when the majority were
// value-initiated, shrinking it otherwise. The paper's main algorithm is the
// r = 1 special case (with the probabilistic gates added); this variant is
// deterministic over the window.
type HistoryController struct {
	params Params
	width  float64
	window []RefreshKind
	r      int
}

// NewHistoryController returns a history-window controller considering the
// last r refreshes.
func NewHistoryController(params Params, initialWidth float64, r int) *HistoryController {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if r < 1 {
		panic("core: history window must be >= 1")
	}
	return &HistoryController{params: params, width: initialWidth, r: r}
}

// Width returns the stored width.
func (h *HistoryController) Width() float64 { return h.width }

// EffectiveWidth applies thresholds.
func (h *HistoryController) EffectiveWidth() float64 { return EffectiveWidth(h.params, h.width) }

// OnRefresh records the refresh and applies the majority rule once the
// window is full.
func (h *HistoryController) OnRefresh(kind RefreshKind) float64 {
	h.window = append(h.window, kind)
	if len(h.window) > h.r {
		h.window = h.window[1:]
	}
	vir := 0
	for _, k := range h.window {
		if k == ValueInitiated {
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

// RefreshInterval is OnRefresh followed by NewInterval.
func (h *HistoryController) RefreshInterval(kind RefreshKind, v float64) interval.Interval {
	h.OnRefresh(kind)
	return h.NewInterval(v)
}

var _ WidthPolicy = (*HistoryController)(nil)
