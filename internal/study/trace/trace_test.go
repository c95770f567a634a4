package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func smallConfig(seed int64) Config {
	return Config{Hosts: 8, Duration: 600, Window: 60, MaxRate: DefaultMaxRate, Seed: seed}
}

func TestGenerateShape(t *testing.T) {
	tr, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tr.Hosts() != 8 {
		t.Fatalf("Hosts = %d", tr.Hosts())
	}
	if tr.Duration() != 600 {
		t.Fatalf("Duration = %d", tr.Duration())
	}
	for h := 0; h < tr.Hosts(); h++ {
		for _, v := range tr.Host(h) {
			if v < 0 || v > DefaultMaxRate || math.IsNaN(v) {
				t.Fatalf("host %d sample %g out of [0, %g]", h, v, DefaultMaxRate)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for h := range a.Series {
		for i := range a.Series[h] {
			if a.Series[h][i] != b.Series[h][i] {
				t.Fatalf("trace differs at host %d sample %d", h, i)
			}
		}
	}
	c, err := Generate(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for h := range a.Series {
		for i := range a.Series[h] {
			if a.Series[h][i] != c.Series[h][i] {
				same = false
			}
		}
	}
	if same {
		t.Errorf("different seeds produced identical traces")
	}
}

func TestGenerateHasBursts(t *testing.T) {
	// The defining property: hosts alternate between inactivity and
	// activity (Figures 4-5 show a host "became active after a period of
	// inactivity"). Check at least one host has both a zero-traffic second
	// and a substantial one.
	tr, err := Generate(Config{Hosts: 20, Duration: 2000, Window: 60, MaxRate: DefaultMaxRate, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for h := 0; h < tr.Hosts(); h++ {
		s := tr.Host(h)
		var hasZero, hasBig bool
		var peak float64
		for _, v := range s {
			if v == 0 {
				hasZero = true
			}
			if v > peak {
				peak = v
			}
		}
		hasBig = peak > 1000
		if hasZero && hasBig {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no host exhibits idle/burst alternation")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Hosts: 0, Duration: 10, Window: 5, MaxRate: 1},
		{Hosts: 1, Duration: 0, Window: 5, MaxRate: 1},
		{Hosts: 1, Duration: 10, Window: 0, MaxRate: 1},
		{Hosts: 1, Duration: 10, Window: 20, MaxRate: 1},
		{Hosts: 1, Duration: 10, Window: 5, MaxRate: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("Generate accepted config %d", i)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Window 1 is the identity.
	id := MovingAverage(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Errorf("window-1 MA changed sample %d", i)
		}
	}
	// Window larger than series: prefix averages.
	big := MovingAverage([]float64{2, 4}, 10)
	if big[0] != 2 || big[1] != 3 {
		t.Errorf("large-window MA = %v", big)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("window 0 did not panic")
		}
	}()
	MovingAverage(xs, 0)
}

func TestMovingAverageSmooths(t *testing.T) {
	// A spike of height 60 smoothed over 60 seconds contributes at most 1
	// per averaged sample more than its neighbours' baseline.
	xs := make([]float64, 200)
	xs[100] = 60
	out := MovingAverage(xs, 60)
	for i, v := range out {
		if v > 1+1e-9 {
			t.Fatalf("MA[%d] = %g, want <= 1", i, v)
		}
	}
	if out[100] != 1 {
		t.Errorf("MA at spike = %g, want 1", out[100])
	}
}

func TestTopN(t *testing.T) {
	tr := &Trace{Series: [][]float64{
		{1, 1}, // total 2
		{5, 5}, // total 10
		{3, 3}, // total 6
	}}
	top := tr.TopN(2)
	if top.Hosts() != 2 {
		t.Fatalf("TopN(2).Hosts = %d", top.Hosts())
	}
	if top.Series[0][0] != 5 || top.Series[1][0] != 3 {
		t.Errorf("TopN order wrong: %v", top.Series)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("TopN(0) did not panic")
		}
	}()
	tr.TopN(0)
}

func TestTotals(t *testing.T) {
	tr := &Trace{Series: [][]float64{{1, 2, 3}, {10, 0, 0}}}
	got := tr.Totals()
	if got[0] != 6 || got[1] != 10 {
		t.Errorf("Totals = %v", got)
	}
}

func TestEmptyTraceAccessors(t *testing.T) {
	tr := &Trace{}
	if tr.Hosts() != 0 || tr.Duration() != 0 {
		t.Errorf("empty trace: %d hosts, %d duration", tr.Hosts(), tr.Duration())
	}
}

func TestQuickMovingAverageBounds(t *testing.T) {
	f := func(raw []uint16, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := int(wRaw)%32 + 1
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		for _, v := range MovingAverage(xs, w) {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMovingAveragePreservesMass(t *testing.T) {
	// With window 1 the MA is the identity, so total mass is preserved.
	f := func(raw []uint8) bool {
		xs := make([]float64, len(raw))
		var want float64
		for i, r := range raw {
			xs[i] = float64(r)
			want += xs[i]
		}
		var got float64
		for _, v := range MovingAverage(xs, 1) {
			got += v
		}
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
