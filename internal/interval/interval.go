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

// Uncentered returns the interval [v-below, v+above]. It is used by the
// uncentered variant of the precision-setting algorithm (paper Section 4.5),
// where the lower and upper widths are adjusted independently.
func Uncentered(v, below, above float64) Interval {
	lo := v - below
	hi := v + above
	if math.IsInf(below, 1) {
		lo = math.Inf(-1)
	}
	if math.IsInf(above, 1) {
		hi = math.Inf(1)
	}
	return Interval{Lo: lo, Hi: hi}
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

// Empty reports whether the interval contains no points (Lo > Hi). Empty
// intervals arise only from Intersect on disjoint inputs.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Add returns the Minkowski sum [a.Lo+b.Lo, a.Hi+b.Hi]. It is the tight bound
// on x+y for x in a, y in b, and is how SUM aggregate result intervals are
// combined (OW00-style bounded aggregation).
func (iv Interval) Add(other Interval) Interval {
	return Interval{Lo: iv.Lo + other.Lo, Hi: iv.Hi + other.Hi}
}

// Sub returns the tight bound on x-y for x in iv, y in other.
func (iv Interval) Sub(other Interval) Interval {
	return Interval{Lo: iv.Lo - other.Hi, Hi: iv.Hi - other.Lo}
}

// Scale returns the interval scaled by a nonnegative factor k.
func (iv Interval) Scale(k float64) Interval {
	return Interval{Lo: iv.Lo * k, Hi: iv.Hi * k}
}

// Max returns the tight bound on max(x, y) for x in iv, y in other.
func (iv Interval) Max(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// Min returns the tight bound on min(x, y) for x in iv, y in other.
func (iv Interval) Min(other Interval) Interval {
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
}

// Intersect returns the overlap of the two intervals. The result is Empty if
// they are disjoint.
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
}

// Union returns the smallest interval containing both inputs.
func (iv Interval) Union(other Interval) Interval {
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// Clamp returns v limited to the interval.
func (iv Interval) Clamp(v float64) float64 {
	if v < iv.Lo {
		return iv.Lo
	}
	if v > iv.Hi {
		return iv.Hi
	}
	return v
}

// String renders the interval as "[lo, hi]" using %g formatting.
func (iv Interval) String() string {
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// SumAll returns the Minkowski sum of all intervals; the zero-length input
// yields the exact interval [0, 0].
func SumAll(ivs []Interval) Interval {
	out := Exact(0)
	for _, iv := range ivs {
		out = out.Add(iv)
	}
	return out
}

// MaxAll returns the tight bound on the maximum over all intervals. It panics
// on an empty input, for which no maximum exists.
func MaxAll(ivs []Interval) Interval {
	if len(ivs) == 0 {
		panic("interval: MaxAll of empty set")
	}
	out := ivs[0]
	for _, iv := range ivs[1:] {
		out = out.Max(iv)
	}
	return out
}

// MinAll returns the tight bound on the minimum over all intervals. It panics
// on an empty input.
func MinAll(ivs []Interval) Interval {
	if len(ivs) == 0 {
		panic("interval: MinAll of empty set")
	}
	out := ivs[0]
	for _, iv := range ivs[1:] {
		out = out.Min(iv)
	}
	return out
}
