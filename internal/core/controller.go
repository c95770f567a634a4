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

	// adjustment counters, useful for diagnostics and tests
	grows   int
	shrinks int
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

// Reset re-initializes the controller as NewController(Params(), w, rng)
// would. It draws nothing, so recycling controllers moves no variate.
func (c *Controller) Reset(w float64) {
	c.SetWidth(w)
	c.grows, c.shrinks = 0, 0
}

// Params returns the controller's parameters.
func (c *Controller) Params() Params { return c.params }

// Width returns the current original (pre-threshold) width.
func (c *Controller) Width() float64 { return c.width }

// SetWidth overrides the stored original width.
func (c *Controller) SetWidth(w float64) {
	if w < 0 || math.IsNaN(w) {
		panic("core: negative or NaN width")
	}
	c.width = w
}

// Grows returns how many grow adjustments have been applied.
func (c *Controller) Grows() int { return c.grows }

// Shrinks returns how many shrink adjustments have been applied.
func (c *Controller) Shrinks() int { return c.shrinks }

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
	c.grows++
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
	c.shrinks++
	c.width /= 1 + c.params.Alpha
}

// NewInterval centers an interval of the current effective width on the
// exact value v. This is the approximation shipped on a refresh (Section 2
// assumes centered intervals; see Uncentered for the 4.5 variant).
func (c *Controller) NewInterval(v float64) interval.Interval {
	return interval.Centered(v, c.EffectiveWidth())
}

// RefreshInterval applies the adjustment for the given refresh kind and
// returns the new interval centered on v.
func (c *Controller) RefreshInterval(kind RefreshKind, v float64) interval.Interval {
	c.OnRefresh(kind)
	return c.NewInterval(v)
}

// FixedController implements the same shipping interface as Controller but
// never adjusts its width. It is used by the fixed-width sweeps of Section
// 4.2 (Figure 3) and as the exact-copy policy (width 0).
type FixedController struct {
	w float64
}

// NewFixedController returns a controller pinned at width w.
func NewFixedController(w float64) *FixedController {
	if w < 0 || math.IsNaN(w) {
		panic("core: negative or NaN fixed width")
	}
	return &FixedController{w: w}
}

// Width returns the pinned width.
func (f *FixedController) Width() float64 { return f.w }

// EffectiveWidth returns the pinned width (no thresholds apply).
func (f *FixedController) EffectiveWidth() float64 { return f.w }

// OnRefresh ignores the refresh and returns the pinned width.
func (f *FixedController) OnRefresh(RefreshKind) float64 { return f.w }

// NewInterval centers an interval of the pinned width on v.
func (f *FixedController) NewInterval(v float64) interval.Interval {
	return interval.Centered(v, f.w)
}

// RefreshInterval returns the pinned-width interval centered on v.
func (f *FixedController) RefreshInterval(_ RefreshKind, v float64) interval.Interval {
	return f.NewInterval(v)
}

// WidthPolicy is the interface shared by all width controllers: the paper's
// adaptive controller, the fixed-width controller, and the 4.5 variants.
// The source engine programs against this interface.
type WidthPolicy interface {
	// OnRefresh applies the policy's adjustment for a refresh of the given
	// kind and returns the new effective width.
	OnRefresh(kind RefreshKind) float64
	// NewInterval builds the interval to ship for exact value v using the
	// current effective width.
	NewInterval(v float64) interval.Interval
	// RefreshInterval is OnRefresh followed by NewInterval.
	RefreshInterval(kind RefreshKind, v float64) interval.Interval
	// Width returns the policy's stored (pre-threshold) width, used for
	// eviction ranking.
	Width() float64
	// EffectiveWidth returns the width with thresholds applied.
	EffectiveWidth() float64
}

var (
	_ WidthPolicy = (*Controller)(nil)
	_ WidthPolicy = (*FixedController)(nil)
)
