package core

import (
	"math"

	"apcache/internal/interval"
)

// Rand is the source of uniform variates in [0, 1) used for the probabilistic
// width adjustments. *math/rand.Rand satisfies it; tests substitute
// deterministic sequences.
type Rand interface {
	Float64() float64
}

// RefreshKind distinguishes the two refresh types of Section 1.1.
type RefreshKind int

const (
	// ValueInitiated marks a refresh pushed by the source because the exact
	// value escaped the cached interval ("too narrow").
	ValueInitiated RefreshKind = iota
	// QueryInitiated marks a refresh pulled by a query that found the
	// cached interval too wide.
	QueryInitiated
)

// String returns the refresh kind name.
func (k RefreshKind) String() string {
	if k == ValueInitiated {
		return "value-initiated"
	}
	return "query-initiated"
}

// Controller holds the adaptive width state for a single cached
// approximation. The source keeps one Controller per (cache, value) pair;
// the controller's stored width is always the "original" pre-threshold width
// (Section 2: "The source still retains the original width, and uses it when
// setting the next width").
//
// Controller is not safe for concurrent use; the source engine serializes
// access per value.
type Controller struct {
	params Params
	width  float64 // original (pre-threshold) width; may be 0
	rng    Rand
}

// NewController returns a controller with the given parameters, initial width
// and randomness source. NewController panics if params are invalid (callers
// validate configuration at the API boundary).
func NewController(params Params, initialWidth float64, rng Rand) *Controller {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("core: nil Rand")
	}
	if initialWidth < 0 || math.IsNaN(initialWidth) {
		panic("core: negative or NaN initial width")
	}
	return &Controller{params: params, width: initialWidth, rng: rng}
}

// Params returns the controller's parameters.
func (c *Controller) Params() Params { return c.params }

// Width returns the current original (pre-threshold) width.
func (c *Controller) Width() float64 { return c.width }

// SetWidth overrides the stored original width. It draws nothing, so a
// controller recycled at a new width is the one NewController(Params(), w,
// rng) would build, and recycling moves no variate.
func (c *Controller) SetWidth(w float64) {
	if w < 0 || math.IsNaN(w) {
		panic("core: negative or NaN width")
	}
	c.width = w
}

// EffectiveWidth applies the lower and upper thresholds to the stored width:
// widths below Lambda0 become 0 (exact copy) and widths at or above Lambda1
// become +Inf (effectively uncached). This is the width actually shipped to
// the cache.
func (c *Controller) EffectiveWidth() float64 {
	return EffectiveWidth(c.params, c.width)
}

// EffectiveWidth applies the Lambda0/Lambda1 thresholding of Section 2 to an
// arbitrary width.
func EffectiveWidth(p Params, w float64) float64 {
	if w < p.Lambda0 {
		return 0
	}
	if w >= p.Lambda1 {
		return math.Inf(1)
	}
	return w
}

// OnRefresh applies the width-adjustment rule for a refresh of the given
// kind and returns the new effective width to ship. The stored original
// width is updated; the returned value has thresholds applied.
func (c *Controller) OnRefresh(kind RefreshKind) float64 {
	if kind == ValueInitiated {
		if c.rng.Float64() < c.params.GrowProbability() {
			c.grow()
		}
	} else {
		if c.rng.Float64() < c.params.ShrinkProbability() {
			c.shrink()
		}
	}
	return c.EffectiveWidth()
}

// grow multiplies the width by (1+alpha). A zero width is re-seeded from
// Lambda0 (or 1 if Lambda0 is zero) so the multiplicative update can escape
// the absorbing state W = 0.
func (c *Controller) grow() {
	if c.width == 0 {
		if c.params.Lambda0 > 0 {
			c.width = c.params.Lambda0
		} else {
			c.width = 1
		}
		return
	}
	c.width *= 1 + c.params.Alpha
}

// shrink divides the width by (1+alpha).
func (c *Controller) shrink() {
	c.width /= 1 + c.params.Alpha
}

// NewInterval centers an interval of the current effective width on the
// exact value v. This is the approximation shipped on a refresh (Section 2
// assumes centered intervals).
func (c *Controller) NewInterval(v float64) interval.Interval {
	return interval.Centered(v, c.EffectiveWidth())
}

// RefreshInterval applies the adjustment for the given refresh kind and
// returns the new interval centered on v. A centered interval grows on both
// sides, so the escape direction above is ignored.
func (c *Controller) RefreshInterval(kind RefreshKind, _ bool, v float64) interval.Interval {
	c.OnRefresh(kind)
	return c.NewInterval(v)
}

// WidthPolicy is what the source runs per (cache, value) pair: the paper's
// adaptive Controller in the serving system, and the fixed-width and Section
// 4.5 variants in the performance study.
type WidthPolicy interface {
	// NewInterval builds the interval to ship for exact value v using the
	// current effective width.
	NewInterval(v float64) interval.Interval
	// RefreshInterval applies the policy's adjustment for a refresh of the
	// given kind and builds the interval to ship for v. above reports, for a
	// value-initiated refresh, whether v escaped past the upper bound; only a
	// policy with independent lower and upper widths reads it.
	RefreshInterval(kind RefreshKind, above bool, v float64) interval.Interval
	// Width returns the policy's stored (pre-threshold) width, used for
	// eviction ranking.
	Width() float64
}

var _ WidthPolicy = (*Controller)(nil)
