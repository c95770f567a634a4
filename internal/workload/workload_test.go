package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandomWalkStepsWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewRandomWalk(100, 0.5, 1.5, rng)
	prev := w.Value()
	for i := 0; i < 1000; i++ {
		v := w.Step()
		d := math.Abs(v - prev)
		if d < 0.5-1e-12 || d > 1.5+1e-12 {
			t.Fatalf("step %d magnitude %g outside [0.5, 1.5]", i, d)
		}
		prev = v
	}
}

func TestRandomWalkUnbiasedStaysNearStart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewRandomWalk(0, 0.5, 1.5, rng)
	n := 20000
	for i := 0; i < n; i++ {
		w.Step()
	}
	// Final displacement of an unbiased walk has std sqrt(n*E[s^2]) ~= 147
	// here; 6 sigma gives a deterministic-seed-safe bound of ~900.
	if math.Abs(w.Value()) > 900 {
		t.Errorf("unbiased walk drifted: final position %g", w.Value())
	}
}

func TestBiasedWalkDrifts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewBiasedWalk(0, 0.5, 1.5, 0.9, rng)
	for i := 0; i < 5000; i++ {
		w.Step()
	}
	// Expected drift: 5000 * 1 * (0.9 - 0.1) = 4000.
	if w.Value() < 3000 {
		t.Errorf("biased walk value %g, want >= 3000", w.Value())
	}
}

func TestWalkPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []func(){
		func() { NewRandomWalk(0, -1, 1, rng) },
		func() { NewRandomWalk(0, 2, 1, rng) },
		func() { NewBiasedWalk(0, 0, 1, 1.5, rng) },
		func() { NewRandomWalk(0, 0, 1, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPlayback(t *testing.T) {
	p := NewPlayback([]float64{1, 2, 3})
	if p.Value() != 1 {
		t.Fatalf("initial value %g", p.Value())
	}
	if p.Step() != 2 || p.Step() != 3 {
		t.Fatalf("playback sequence wrong")
	}
	if p.Step() != 3 {
		t.Errorf("playback did not hold final value")
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("empty playback did not panic")
		}
	}()
	NewPlayback(nil)
}

func TestConstraintDist(t *testing.T) {
	c := ConstraintDist{Avg: 100, Sigma: 0.5}
	if c.Min() != 50 || c.Max() != 150 {
		t.Fatalf("range [%g, %g], want [50, 150]", c.Min(), c.Max())
	}
	rng := rand.New(rand.NewSource(4))
	var s float64
	for i := 0; i < 10000; i++ {
		v := c.Sample(rng)
		if v < 50 || v > 150 {
			t.Fatalf("sample %g outside range", v)
		}
		s += v
	}
	mean := s / 10000
	if math.Abs(mean-100) > 2 {
		t.Errorf("sample mean %g, want ~100", mean)
	}
}

func TestConstraintDistZeroAvg(t *testing.T) {
	c := ConstraintDist{Avg: 0, Sigma: 1}
	rng := rand.New(rand.NewSource(5))
	if got := c.Sample(rng); got != 0 {
		t.Errorf("zero-average constraint sampled %g", got)
	}
}

func TestConstraintSigmaZeroIsConstant(t *testing.T) {
	c := ConstraintDist{Avg: 42, Sigma: 0}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		if got := c.Sample(rng); got != 42 {
			t.Fatalf("sigma=0 sampled %g, want 42", got)
		}
	}
}

func TestFromRange(t *testing.T) {
	c := FromRange(50, 150)
	if math.Abs(c.Avg-100) > 1e-12 || math.Abs(c.Sigma-0.5) > 1e-12 {
		t.Errorf("FromRange(50,150) = %+v, want avg 100 sigma 0.5", c)
	}
	c = FromRange(0, 100)
	if c.Avg != 50 || c.Sigma != 1 {
		t.Errorf("FromRange(0,100) = %+v, want avg 50 sigma 1", c)
	}
	z := FromRange(0, 0)
	if z.Avg != 0 {
		t.Errorf("FromRange(0,0) = %+v", z)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("FromRange(10,5) did not panic")
		}
	}()
	FromRange(10, 5)
}

func TestQueryGen(t *testing.T) {
	g := &QueryGen{
		Kinds:        []AggKind{Sum},
		NumSources:   50,
		KeysPerQuery: 10,
		Constraints:  ConstraintDist{Avg: 100, Sigma: 1},
		RNG:          rand.New(rand.NewSource(7)),
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := 0; i < 200; i++ {
		q := g.Next()
		if q.Kind != Sum {
			t.Fatalf("kind %v", q.Kind)
		}
		if len(q.Keys) != 10 {
			t.Fatalf("got %d keys", len(q.Keys))
		}
		seen := map[int]bool{}
		for _, k := range q.Keys {
			if k < 0 || k >= 50 {
				t.Fatalf("key %d out of range", k)
			}
			if seen[k] {
				t.Fatalf("duplicate key %d", k)
			}
			seen[k] = true
		}
		if q.Delta < 0 || q.Delta > 200 {
			t.Fatalf("delta %g out of [0, 200]", q.Delta)
		}
	}
}

func TestQueryGenMixedKinds(t *testing.T) {
	g := &QueryGen{
		Kinds:        []AggKind{Sum, Max},
		NumSources:   10,
		KeysPerQuery: 5,
		Constraints:  ConstraintDist{Avg: 10},
		RNG:          rand.New(rand.NewSource(8)),
	}
	counts := map[AggKind]int{}
	for i := 0; i < 1000; i++ {
		counts[g.Next().Kind]++
	}
	if counts[Sum] < 300 || counts[Max] < 300 {
		t.Errorf("kind mix skewed: %v", counts)
	}
}

func TestQueryGenValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := QueryGen{Kinds: []AggKind{Sum}, NumSources: 10, KeysPerQuery: 5, RNG: rng}
	bad := []QueryGen{
		{NumSources: 10, KeysPerQuery: 5, RNG: rng},
		{Kinds: []AggKind{Sum}, NumSources: 0, KeysPerQuery: 1, RNG: rng},
		{Kinds: []AggKind{Sum}, NumSources: 10, KeysPerQuery: 0, RNG: rng},
		{Kinds: []AggKind{Sum}, NumSources: 10, KeysPerQuery: 11, RNG: rng},
		{Kinds: []AggKind{Sum}, NumSources: 10, KeysPerQuery: 5, RNG: nil},
		{Kinds: []AggKind{Sum}, NumSources: 10, KeysPerQuery: 5, RNG: rng, Constraints: ConstraintDist{Avg: -1}},
		{Kinds: []AggKind{Sum}, NumSources: 10, KeysPerQuery: 5, RNG: rng, Constraints: ConstraintDist{Avg: 1, Sigma: 2}},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base should validate: %v", err)
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestAggKindString(t *testing.T) {
	names := map[AggKind]string{Sum: "SUM", Max: "MAX", Min: "MIN", Avg: "AVG"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if AggKind(9).String() != "AggKind(9)" {
		t.Errorf("unknown kind string %q", AggKind(9).String())
	}
}

func TestQuickSampleDistinct(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		got := sampleDistinct(rng, n, k)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWalkBoundedDrift(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewRandomWalk(0, 1, 1, rng) // fixed unit steps
		for i := 0; i < 100; i++ {
			w.Step()
		}
		// After 100 unit steps the position is in [-100, 100] and has the
		// parity of 100.
		v := w.Value()
		return math.Abs(v) <= 100 && math.Abs(math.Mod(v, 2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfKeysSkew(t *testing.T) {
	z := NewZipfKeys(10, 1.2)
	if z.N() != 10 {
		t.Fatalf("N = %d", z.N())
	}
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		k := z.Sample(rng)
		if k < 0 || k >= 10 {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[5] || counts[5] <= counts[9] {
		t.Errorf("no skew: %v", counts)
	}
	// Key 0 should carry a substantial share under s=1.2.
	if counts[0] < 4000 {
		t.Errorf("key 0 drew only %d of 20000", counts[0])
	}
}

func TestZipfSampleDistinct(t *testing.T) {
	z := NewZipfKeys(6, 1)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		got := z.SampleDistinct(rng, 4)
		seen := map[int]bool{}
		for _, k := range got {
			if k < 0 || k >= 6 || seen[k] {
				t.Fatalf("bad distinct sample %v", got)
			}
			seen[k] = true
		}
	}
	// Sampling all keys works (rejection terminates).
	if got := z.SampleDistinct(rng, 6); len(got) != 6 {
		t.Errorf("full sample %v", got)
	}
}

func TestZipfPanics(t *testing.T) {
	cases := []func(){
		func() { NewZipfKeys(0, 1) },
		func() { NewZipfKeys(5, 0) },
		func() { NewZipfKeys(5, math.NaN()) },
		func() { NewZipfKeys(3, 1).SampleDistinct(rand.New(rand.NewSource(1)), 4) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestQueryGenZipf(t *testing.T) {
	g := &QueryGen{
		Kinds:        []AggKind{Sum},
		NumSources:   20,
		KeysPerQuery: 3,
		Constraints:  ConstraintDist{Avg: 10},
		RNG:          rand.New(rand.NewSource(11)),
		Zipf:         NewZipfKeys(20, 1.5),
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	hot := 0
	for i := 0; i < 500; i++ {
		q := g.Next()
		for _, k := range q.Keys {
			if k < 3 {
				hot++
			}
		}
	}
	if hot < 500 {
		t.Errorf("hot keys drawn only %d times; skew not applied", hot)
	}
	// Mismatched Zipf size fails validation.
	g.Zipf = NewZipfKeys(5, 1)
	if err := g.Validate(); err == nil {
		t.Errorf("mismatched Zipf accepted")
	}
}
