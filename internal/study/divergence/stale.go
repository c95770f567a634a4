package divergence

import (
	"math"

	"apcache/internal/core"
	"apcache/internal/interval"
)

// StalePolicy specializes the paper's adaptive algorithm to the Divergence
// Caching setting (Section 2.1, Section 4.7): the "value" is the cumulative
// update count, which only grows, so the shipped approximation is the
// one-sided interval [v, v+W] — a promise of at most W unseen updates. The
// wrapped controller must use core.ModeStaleCount so the cost factor is
// theta' = Cvr/Cqr (the value-initiated refresh probability is ~1/W here,
// not ~1/W^2).
type StalePolicy struct {
	ctrl *core.Controller
}

// NewStalePolicy wraps a stale-count controller. It panics if the
// controller is not in stale-count mode — a silent wrong theta would
// invalidate the comparison.
func NewStalePolicy(ctrl *core.Controller) *StalePolicy {
	if ctrl.Params().Mode != core.ModeStaleCount {
		panic("divergence: StalePolicy requires core.ModeStaleCount")
	}
	return &StalePolicy{ctrl: ctrl}
}

// Width returns the controller's stored width.
func (p *StalePolicy) Width() float64 { return p.ctrl.Width() }

// NewInterval ships [v, v+W]: the update counter can only grow.
func (p *StalePolicy) NewInterval(v float64) interval.Interval {
	w := p.ctrl.EffectiveWidth()
	if math.IsInf(w, 1) {
		return interval.Interval{Lo: v, Hi: math.Inf(1)}
	}
	return interval.Interval{Lo: v, Hi: v + w}
}

// RefreshInterval applies the controller's probabilistic adjustment and
// ships the new interval; a counter never escapes downward, so above does
// not matter.
func (p *StalePolicy) RefreshInterval(kind core.RefreshKind, _ bool, v float64) interval.Interval {
	p.ctrl.OnRefresh(kind)
	return p.NewInterval(v)
}

var _ core.WidthPolicy = (*StalePolicy)(nil)
