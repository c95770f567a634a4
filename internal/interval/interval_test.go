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

func TestUncentered(t *testing.T) {
	iv := Uncentered(10, 2, 5)
	if iv.Lo != 8 || iv.Hi != 15 {
		t.Fatalf("Uncentered(10,2,5) = %v, want [8, 15]", iv)
	}
	half := Uncentered(10, math.Inf(1), 3)
	if !math.IsInf(half.Lo, -1) || half.Hi != 13 {
		t.Errorf("Uncentered(10,Inf,3) = %v, want [-Inf, 13]", half)
	}
	if half.Width() != math.Inf(1) {
		t.Errorf("half-bounded width = %g, want +Inf", half.Width())
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
	diff := a.Sub(b)
	if diff.Lo != -13 || diff.Hi != -7 {
		t.Errorf("Sub = %v, want [-13, -7]", diff)
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
	mn := a.Min(b)
	if mn.Lo != 1 || mn.Hi != 4 {
		t.Errorf("Min = %v, want [1, 4]", mn)
	}
}

func TestIntersectUnion(t *testing.T) {
	a := Interval{Lo: 0, Hi: 10}
	b := Interval{Lo: 5, Hi: 15}
	in := a.Intersect(b)
	if in.Lo != 5 || in.Hi != 10 {
		t.Errorf("Intersect = %v, want [5, 10]", in)
	}
	un := a.Union(b)
	if un.Lo != 0 || un.Hi != 15 {
		t.Errorf("Union = %v, want [0, 15]", un)
	}
	disjoint := Interval{Lo: 20, Hi: 30}
	if got := a.Intersect(disjoint); !got.Empty() {
		t.Errorf("Intersect of disjoint intervals = %v, want empty", got)
	}
}

func TestClamp(t *testing.T) {
	iv := Interval{Lo: -1, Hi: 1}
	cases := []struct{ in, want float64 }{{-5, -1}, {0.5, 0.5}, {3, 1}}
	for _, tc := range cases {
		if got := iv.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestAggregatesAll(t *testing.T) {
	ivs := []Interval{{0, 2}, {1, 5}, {-3, -1}}
	sum := SumAll(ivs)
	if sum.Lo != -2 || sum.Hi != 6 {
		t.Errorf("SumAll = %v, want [-2, 6]", sum)
	}
	mx := MaxAll(ivs)
	if mx.Lo != 1 || mx.Hi != 5 {
		t.Errorf("MaxAll = %v, want [1, 5]", mx)
	}
	mn := MinAll(ivs)
	if mn.Lo != -3 || mn.Hi != -1 {
		t.Errorf("MinAll = %v, want [-3, -1]", mn)
	}
	if got := SumAll(nil); !got.IsExact() || got.Lo != 0 {
		t.Errorf("SumAll(nil) = %v, want [0, 0]", got)
	}
}

func TestMaxAllPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MaxAll(nil) did not panic")
		}
	}()
	MaxAll(nil)
}

func TestMinAllPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MinAll(nil) did not panic")
		}
	}()
	MinAll(nil)
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

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a := normalize(a1, a2)
		b := normalize(b1, b2)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
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
		if in.Empty() {
			return true
		}
		return a.Contains(in) && b.Contains(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
