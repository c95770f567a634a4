// Package interval implements the interval approximations to numeric values
// used throughout the adaptive-precision cache: an exact value V is
// approximated by a closed interval [Lo, Hi], valid as long as Lo <= V <= Hi.
//
// Precision is the reciprocal of the width (Olston/Loo/Widom, SIGMOD 2001,
// Section 2): a zero-width interval is an exact copy (infinite precision) and
// an infinite-width interval carries no information (zero precision).
package interval

import (
	"fmt"
	"math"
)

// Interval is a closed numeric interval [Lo, Hi]. The zero value is the
// degenerate interval [0, 0], an exact approximation of the value 0.
//
// Lo may be -Inf and Hi may be +Inf; such intervals are valid for every
// value and have zero precision.
type Interval struct {
	Lo float64
	Hi float64
}

// Exact returns the zero-width interval [v, v], an exact copy of v.
func Exact(v float64) Interval { return Interval{Lo: v, Hi: v} }

// Centered returns the interval of width w centered on v. A width of
// math.Inf(1) yields the unbounded interval.
func Centered(v, w float64) Interval {
	if math.IsInf(w, 1) {
		return Unbounded()
	}
	h := w / 2
	return Interval{Lo: v - h, Hi: v + h}
}

// Unbounded returns the interval (-Inf, +Inf), which is valid for every value
// and has zero precision. It models "effectively uncached" approximations
// produced by the upper threshold lambda1.
func Unbounded() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// Width returns Hi - Lo. It is +Inf for unbounded intervals and 0 for exact
// copies.
func (iv Interval) Width() float64 {
	if math.IsInf(iv.Hi, 1) || math.IsInf(iv.Lo, -1) {
		return math.Inf(1)
	}
	return iv.Hi - iv.Lo
}

// Valid reports whether v lies inside the interval, i.e. whether the interval
// is still a valid approximation of v (paper Section 1.1: Valid([L,H], V)).
func (iv Interval) Valid(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// Contains reports whether other lies entirely inside iv.
func (iv Interval) Contains(other Interval) bool {
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Center returns the midpoint of the interval. For unbounded or half-bounded
// intervals the result is NaN.
func (iv Interval) Center() float64 { return (iv.Lo + iv.Hi) / 2 }

// IsExact reports whether the interval has zero width.
func (iv Interval) IsExact() bool { return iv.Lo == iv.Hi }

// IsUnbounded reports whether either endpoint is infinite.
func (iv Interval) IsUnbounded() bool {
	return math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1)
}

// Add returns the Minkowski sum [a.Lo+b.Lo, a.Hi+b.Hi]. It is the tight bound
// on x+y for x in a, y in b, and is how SUM aggregate result intervals are
// combined (OW00-style bounded aggregation).
func (iv Interval) Add(other Interval) Interval {
	return Interval{Lo: iv.Lo + other.Lo, Hi: iv.Hi + other.Hi}
}

// Scale returns the interval scaled by a nonnegative factor k.
func (iv Interval) Scale(k float64) Interval {
	return Interval{Lo: iv.Lo * k, Hi: iv.Hi * k}
}

// Max returns the tight bound on max(x, y) for x in iv, y in other.
func (iv Interval) Max(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// Intersect returns the overlap of the two intervals. For disjoint inputs the
// result has Lo > Hi.
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
}

// String renders the interval as "[lo, hi]" using %g formatting.
func (iv Interval) String() string {
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}
