package interval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExact(t *testing.T) {
	iv := Exact(5)
	if !iv.IsExact() {
		t.Fatalf("Exact(5).IsExact() = false")
	}
	if got := iv.Width(); got != 0 {
		t.Errorf("width = %g, want 0", got)
	}
	if !iv.Valid(5) {
		t.Errorf("Exact(5) should be valid for 5")
	}
	if iv.Valid(5.0000001) {
		t.Errorf("Exact(5) should not be valid for 5.0000001")
	}
}

func TestCentered(t *testing.T) {
	tests := []struct {
		v, w   float64
		lo, hi float64
	}{
		{0, 2, -1, 1},
		{10, 4, 8, 12},
		{-5, 1, -5.5, -4.5},
		{7, 0, 7, 7},
	}
	for _, tc := range tests {
		iv := Centered(tc.v, tc.w)
		if iv.Lo != tc.lo || iv.Hi != tc.hi {
			t.Errorf("Centered(%g, %g) = %v, want [%g, %g]", tc.v, tc.w, iv, tc.lo, tc.hi)
		}
	}
}

func TestCenteredInfiniteWidth(t *testing.T) {
	iv := Centered(42, math.Inf(1))
	if !iv.IsUnbounded() {
		t.Fatalf("Centered with Inf width should be unbounded, got %v", iv)
	}
	if !iv.Valid(1e300) || !iv.Valid(-1e300) {
		t.Errorf("unbounded interval should be valid for all values")
	}
}

func TestUnbounded(t *testing.T) {
	iv := Unbounded()
	if got := iv.Width(); !math.IsInf(got, 1) {
		t.Errorf("width = %g, want +Inf", got)
	}
	if iv.IsExact() {
		t.Errorf("unbounded interval reported exact")
	}
}

func TestValidBoundaries(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 4}
	for _, v := range []float64{2, 3, 4} {
		if !iv.Valid(v) {
			t.Errorf("Valid(%g) = false, want true (closed interval)", v)
		}
	}
	for _, v := range []float64{1.999, 4.001} {
		if iv.Valid(v) {
			t.Errorf("Valid(%g) = true, want false", v)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := Interval{Lo: 1, Hi: 3}
	b := Interval{Lo: 10, Hi: 14}
	sum := a.Add(b)
	if sum.Lo != 11 || sum.Hi != 17 {
		t.Errorf("Add = %v, want [11, 17]", sum)
	}
	sc := a.Scale(2)
	if sc.Lo != 2 || sc.Hi != 6 {
		t.Errorf("Scale = %v, want [2, 6]", sc)
	}
}

func TestMaxMin(t *testing.T) {
	a := Interval{Lo: 1, Hi: 5}
	b := Interval{Lo: 3, Hi: 4}
	mx := a.Max(b)
	if mx.Lo != 3 || mx.Hi != 5 {
		t.Errorf("Max = %v, want [3, 5]", mx)
	}
}

func TestIntersect(t *testing.T) {
	a := Interval{Lo: 0, Hi: 10}
	b := Interval{Lo: 5, Hi: 15}
	in := a.Intersect(b)
	if in.Lo != 5 || in.Hi != 10 {
		t.Errorf("Intersect = %v, want [5, 10]", in)
	}
	disjoint := Interval{Lo: 20, Hi: 30}
	if got := a.Intersect(disjoint); got.Lo <= got.Hi {
		t.Errorf("Intersect of disjoint intervals = %v, want empty", got)
	}
}

func TestString(t *testing.T) {
	iv := Interval{Lo: 1.5, Hi: 2.25}
	if got := iv.String(); got != "[1.5, 2.25]" {
		t.Errorf("String = %q", got)
	}
}

// normalize produces a well-formed interval from two arbitrary floats so
// quick.Check explores valid inputs.
func normalize(a, b float64) Interval {
	if math.IsNaN(a) {
		a = 0
	}
	if math.IsNaN(b) {
		b = 0
	}
	if a > b {
		a, b = b, a
	}
	return Interval{Lo: a, Hi: b}
}

func TestQuickCenterInsideInterval(t *testing.T) {
	f := func(v float64, w float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		w = math.Abs(w)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		iv := Centered(v, w)
		return iv.Valid(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSumContainsPointSums(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a := normalize(a1, a2)
		b := normalize(b1, b2)
		if a.IsUnbounded() || b.IsUnbounded() {
			return true
		}
		// Keep magnitudes where float64 rounding cannot push a midpoint sum
		// outside the endpoint sum by more than a ULP.
		for _, e := range []float64{a.Lo, a.Hi, b.Lo, b.Hi} {
			if math.Abs(e) > 1e100 {
				return true
			}
		}
		// Sample the endpoints and centers; their sums must lie in a.Add(b).
		sum := a.Add(b)
		for _, x := range []float64{a.Lo, a.Center(), a.Hi} {
			for _, y := range []float64{b.Lo, b.Center(), b.Hi} {
				if !sum.Valid(x + y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxContainsPointMaxes(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a := normalize(a1, a2)
		b := normalize(b1, b2)
		if a.IsUnbounded() || b.IsUnbounded() {
			return true
		}
		mx := a.Max(b)
		for _, x := range []float64{a.Lo, a.Hi} {
			for _, y := range []float64{b.Lo, b.Hi} {
				if !mx.Valid(math.Max(x, y)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectInsideBoth(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a := normalize(a1, a2)
		b := normalize(b1, b2)
		in := a.Intersect(b)
		if in.Lo > in.Hi { // disjoint
			return true
		}
		return a.Contains(in) && b.Contains(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
