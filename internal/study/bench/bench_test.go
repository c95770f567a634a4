package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "conv", "fig45", "fig6", "fig789",
		"sigma", "maxq", "fig1011", "fig1213", "fig1415", "variants", "ablation"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted: %v", ids)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Errorf("unknown id found")
	}
}

// parseCell converts a table cell back to a float.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	if s == "inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestFig2Shape(t *testing.T) {
	rep, err := runFig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	// Omega must be V-shaped: decreasing then increasing.
	var omegas []float64
	for _, row := range tb.Rows {
		omegas = append(omegas, parseCell(t, row[3]))
	}
	minIdx := 0
	for i, v := range omegas {
		if v < omegas[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(omegas)-1 {
		t.Errorf("Omega minimum at boundary (idx %d), not V-shaped", minIdx)
	}
	for i := 1; i <= minIdx; i++ {
		if omegas[i] > omegas[i-1]+1e-9 {
			t.Errorf("Omega not decreasing before minimum at row %d", i)
		}
	}
	for i := minIdx + 1; i < len(omegas); i++ {
		if omegas[i] < omegas[i-1]-1e-9 {
			t.Errorf("Omega not increasing after minimum at row %d", i)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rep, err := runFig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	// Pvr falls and Pqr rises across the width sweep.
	if parseCell(t, first[1]) <= parseCell(t, last[1]) {
		t.Errorf("Pvr did not fall with width: %s -> %s", first[1], last[1])
	}
	if parseCell(t, first[2]) >= parseCell(t, last[2]) {
		t.Errorf("Pqr did not rise with width: %s -> %s", first[2], last[2])
	}
	// Interior minimum for Omega.
	minIdx, minV := 0, math.Inf(1)
	for i, row := range tb.Rows {
		if v := parseCell(t, row[3]); v < minV {
			minIdx, minV = i, v
		}
	}
	if minIdx == 0 || minIdx == len(tb.Rows)-1 {
		t.Errorf("measured Omega minimum at boundary (W=%s)", tb.Rows[minIdx][0])
	}
	if len(rep.Notes) < 2 {
		t.Errorf("missing adaptive notes")
	}
}

func TestConvergenceShape(t *testing.T) {
	rep, err := runConvergence(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("got %d scenarios, want 8", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		gap, err := strconv.ParseFloat(strings.TrimPrefix(row[6], "+"), 64)
		if err != nil {
			t.Fatalf("gap cell %q: %v", row[6], err)
		}
		// Quick runs are noisy; the steady-state gap must still be small.
		if gap > 25 {
			t.Errorf("scenario %v: adaptive %s%% worse than best fixed", row[:3], row[6])
		}
	}
}

func TestFig45Produces(t *testing.T) {
	rep, err := runFig45(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Charts) != 2 {
		t.Fatalf("got %d charts, want 2", len(rep.Charts))
	}
	if len(rep.Notes) != 2 {
		t.Fatalf("got %d notes, want 2", len(rep.Notes))
	}
	// Mean width under davg=500K must exceed mean width under davg=50K
	// (Figures 4 vs 5: wide intervals for loose constraints).
	var widths []float64
	for _, note := range rep.Notes {
		i := strings.LastIndex(note, "width ")
		rest := note[i+len("width "):]
		rest = strings.Fields(rest)[0]
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("parsing note %q: %v", note, err)
		}
		widths = append(widths, v)
	}
	if widths[1] <= widths[0] {
		t.Errorf("davg=500K width %g <= davg=50K width %g", widths[1], widths[0])
	}
}

func TestFig789Shape(t *testing.T) {
	rep, err := runFig789(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	// Column 1 is lambda1=lambda0: flat in davg (same cost every row).
	base := parseCell(t, tb.Rows[0][1])
	for _, row := range tb.Rows[1:] {
		v := parseCell(t, row[1])
		if math.Abs(v-base)/math.Max(base, 1e-9) > 0.15 {
			t.Errorf("lambda1=lambda0 not flat: %g vs %g", v, base)
		}
	}
	// At the largest davg, lambda1=inf must beat lambda1=lambda0.
	last := tb.Rows[len(tb.Rows)-1]
	if parseCell(t, last[3]) >= parseCell(t, last[1]) {
		t.Errorf("lambda1=inf (%s) not cheaper than lambda1=lambda0 (%s) at large davg", last[3], last[1])
	}
}

func TestSigmaSmall(t *testing.T) {
	rep, err := runSigma(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Tables[0].Rows {
		diff := math.Abs(parseCell(t, row[3]))
		if diff > 50 {
			t.Errorf("sigma sensitivity %g%% at davg=%s implausibly large", diff, row[0])
		}
	}
}

func TestMaxQShape(t *testing.T) {
	rep, err := runMaxQ(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// At davg=0 lambda1=inf must be at least as good as lambda1=lambda0
	// for MAX queries (candidate elimination).
	row0 := rep.Tables[0].Rows[0]
	l0 := parseCell(t, row0[1])
	inf := parseCell(t, row0[2])
	if inf > l0*1.1 {
		t.Errorf("MAX davg=0: lambda1=inf %g much worse than lambda1=lambda0 %g", inf, l0)
	}
}

func TestFig1011Shape(t *testing.T) {
	rep, err := runExactComparison(quickOpts(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("got %d tables, want 2 (theta=1, theta=4)", len(rep.Tables))
	}
	for ti, tb := range rep.Tables {
		for _, row := range tb.Rows {
			exactCost := parseCell(t, row[1])
			oursL0 := parseCell(t, row[2])
			ours500 := parseCell(t, row[5])
			// Claim 1: lambda1=lambda0 tracks exact caching. The paper
			// reports a near-precise match; our reconstruction keeps a
			// boundary-probing overhead of up to ~35% on busy sources
			// (each cache/don't-cache cycle pays one extra VIR at
			// theta=1), so assert tracking within 50%.
			if math.Abs(oursL0-exactCost)/math.Max(exactCost, 1e-9) > 0.5 {
				t.Errorf("table %d Tq=%s: ours l1=l0 %g vs exact %g diverge", ti, row[0], oursL0, exactCost)
			}
			// Claim 2: at davg=500K, lambda1=inf beats exact caching. At
			// slow query rates (Tq=5) every policy converges toward the
			// cheap don't-cache floor, so the strict win is asserted only
			// for Tq <= 2 (where the paper's separation is large) and
			// near-parity elsewhere.
			if tq := parseCell(t, row[0]); tq <= 2 {
				if ours500 >= exactCost {
					t.Errorf("table %d Tq=%s: ours inf davg=500K %g not cheaper than exact %g", ti, row[0], ours500, exactCost)
				}
			} else if ours500 > exactCost*1.15 {
				t.Errorf("table %d Tq=%s: ours inf davg=500K %g above exact %g at slow rate", ti, row[0], ours500, exactCost)
			}
		}
	}
}

func TestFig1213Runs(t *testing.T) {
	rep, err := runExactComparison(quickOpts(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range rep.Tables {
		if len(tb.Headers) != 3 {
			t.Errorf("small-cache table has %d columns, want 3", len(tb.Headers))
		}
		for _, row := range tb.Rows {
			if parseCell(t, row[1]) <= 0 || parseCell(t, row[2]) <= 0 {
				t.Errorf("non-positive cost in row %v", row)
			}
		}
	}
}

func TestFig1415Shape(t *testing.T) {
	rep, err := runDivergenceComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("got %d tables, want 2 (Tq=1, Tq=5)", len(rep.Tables))
	}
	for ti, tb := range rep.Tables {
		rows := tb.Rows
		// Both algorithms get cheaper as davg grows.
		if parseCell(t, rows[len(rows)-1][1]) >= parseCell(t, rows[0][1]) {
			t.Errorf("table %d: ours does not improve with davg", ti)
		}
		if parseCell(t, rows[len(rows)-1][2]) >= parseCell(t, rows[0][2]) {
			t.Errorf("table %d: divergence does not improve with davg", ti)
		}
	}
	// Competitiveness claim, restricted to davg > 0: at davg = 0 our
	// reconstruction's Divergence baseline locks the g=0 exact-copy policy
	// while the paper's algorithm probes by design (see EXPERIMENTS.md).
	// For davg > 0 every point must be within 35% and ours must win or tie
	// somewhere (the paper reports a modest improvement; our DC
	// reconstruction recomputes from ground-truth windows, which narrows
	// the gap).
	oursWins := false
	for ti, tb := range rep.Tables {
		for _, row := range tb.Rows[1:] {
			ours := parseCell(t, row[1])
			dc := parseCell(t, row[2])
			if ours > dc*1.35 {
				t.Errorf("table %d davg=%s: ours %g much worse than divergence %g", ti, row[0], ours, dc)
			}
			if ours <= dc*1.05 {
				oursWins = true
			}
		}
	}
	if !oursWins {
		t.Errorf("ours never competitive at any davg > 0")
	}
}

func TestVariantsRun(t *testing.T) {
	rep, err := runVariants(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("got %d tables, want 2 (unbiased, biased)", len(rep.Tables))
	}
	for _, tb := range rep.Tables {
		if len(tb.Rows) != 3 {
			t.Errorf("variant table has %d rows, want 3", len(tb.Rows))
		}
	}
}

func TestThetaCosts(t *testing.T) {
	cvr, cqr := thetaCosts(4)
	if cvr != 4 || cqr != 2 {
		t.Errorf("thetaCosts(4) = %g, %g", cvr, cqr)
	}
	// Verify the mapping: theta = 2*Cvr/Cqr.
	if got := 2 * cvr / cqr; got != 4 {
		t.Errorf("round trip theta = %g", got)
	}
}

func TestNetmonTraceMemoized(t *testing.T) {
	a, err := netmonTrace(4, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netmonTrace(4, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("trace not memoized")
	}
	if a.Hosts() != 4 {
		t.Errorf("TopN not applied: %d hosts", a.Hosts())
	}
}

func TestAblationShape(t *testing.T) {
	rep, err := runAblation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(tb.Rows))
	}
	full := parseCell(t, tb.Rows[0][1])
	ungated := parseCell(t, tb.Rows[1][1])
	misTheta := parseCell(t, tb.Rows[4][1])
	// The two analysis-backed choices must matter: ablating either the
	// probability gates or the theta calibration costs at least 10%.
	if ungated < full*1.10 {
		t.Errorf("ungated %g not clearly worse than full %g", ungated, full)
	}
	if misTheta < full*1.10 {
		t.Errorf("mis-set theta %g not clearly worse than full %g", misTheta, full)
	}
}

// studyDigest is the SHA-256 of every experiment's rendered output at
// quickOpts. It pins the study's numbers: a change that should leave the
// study alone (a refactor of the controller, a policy or the simulator) must
// leave it alone bit for bit. Re-record it only with a change that means to
// move the study, and say which experiments moved.
const studyDigest = "a244166042845d69483963b7a8406a248e99f9a21a8d1d6e6afd6bce33b9d89c"

func TestStudyDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	h := sha256.New()
	for _, e := range All() {
		rep, err := e.Run(quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(h, "== %s\n", e.ID)
		for _, tb := range rep.Tables {
			fmt.Fprintln(h, tb.String())
		}
		for _, ch := range rep.Charts {
			fmt.Fprintln(h, ch.String())
		}
		for _, n := range rep.Notes {
			fmt.Fprintln(h, n)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != studyDigest {
		t.Errorf("study digest %s, want %s", got, studyDigest)
	}
}
