package policy

import (
	"math"

	"apcache/internal/core"
	"apcache/internal/interval"
)

// FixedController implements the same shipping interface as core.Controller
// but never adjusts its width. It is used by the fixed-width sweeps of
// Section 4.2 (Figure 3) and as the exact-copy policy (width 0).
type FixedController struct {
	w float64
}

// NewFixedController returns a controller pinned at width w.
func NewFixedController(w float64) *FixedController {
	if w < 0 || math.IsNaN(w) {
		panic("policy: negative or NaN fixed width")
	}
	return &FixedController{w: w}
}

// Width returns the pinned width.
func (f *FixedController) Width() float64 { return f.w }

// NewInterval centers an interval of the pinned width on v.
func (f *FixedController) NewInterval(v float64) interval.Interval {
	return interval.Centered(v, f.w)
}

// RefreshInterval ignores the refresh and returns the pinned-width interval
// centered on v.
func (f *FixedController) RefreshInterval(_ core.RefreshKind, _ bool, v float64) interval.Interval {
	return f.NewInterval(v)
}

var _ core.WidthPolicy = (*FixedController)(nil)
