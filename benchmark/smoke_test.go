package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"apcache"
)

// loadBenchmarkJSON reads BENCHMARK.json with unknown keys rejected, so the
// file keeps exactly the keys the benchmark contract allows.
func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesBinary holds the definition file and the binary
// to the same names, units and directions, and both to the contract's
// limits.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the binary %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		check(w.Name)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %v, the binary %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		check(m.Name)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %v, the binary %v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		check(m.Name)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v", b.Paths)
	}
}

// TestSmoke runs every workload for about a second — host child, kill -9
// and recovery included — in both modes and asserts that each run is
// correct and emits exactly the metric names BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	b := loadBenchmarkJSON(t)
	exe := filepath.Join(t.TempDir(), "apcache-benchmark")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	scratch := t.TempDir()
	for _, w := range b.Workloads {
		if w.Name != wlStoreMixed && !reexecSupported {
			t.Logf("%s: skipped, no host child on this platform", w.Name)
			continue
		}
		if w.Name == wlStandingDurable && !apcache.PollerSupported() {
			t.Logf("%s: skipped, no epoll connection core on this platform", w.Name)
			continue
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				cmd := exec.CommandContext(ctx, exe, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace, "-scratch", scratch)
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := regexp.MustCompile(`\n+`).Split(string(out), -1)
				var last string
				for _, l := range lines {
					if l != "" {
						last = l
					}
				}
				var res struct {
					Correct   *bool                  `json:"correct"`
					Attempted *int64                 `json:"attempted"`
					Failed    *int64                 `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(last))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the contract object: %v\n%s", err, last)
				}
				if res.Correct == nil || res.Attempted == nil || res.Failed == nil || !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
					t.Errorf("correct/attempted/failed: %s", last)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if u, ok := want[name]; !ok || u != m.Unit {
						t.Errorf("metric %s (%s) is not in BENCHMARK.json with that unit", name, m.Unit)
					}
					if trace == "0" && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d: %v", len(got), len(want), got)
				}
			})
		}
	}
	if left, _ := os.ReadDir(scratch); len(left) != 0 {
		// A traced run leaves its span files beside the scratch directory,
		// never inside it; run directories are removed.
		t.Errorf("scratch directory not cleaned: %d entries left", len(left))
	}
}

// TestQuartilesMatchPython pins compare's quartiles to the values Python's
// statistics.quantiles(n=4) gives, which the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 3 1 4 1 5 = %g %g %g, want 1 3 4.5", q1, q2, q3)
	}
}

// TestStalenessReplay checks the episode rule on a hand-made schedule.
func TestStalenessReplay(t *testing.T) {
	truth := []truthPoint{{-100, 10}, {100, 12}, {300, 10.5}, {500, 20}, {600, 21}}
	arrivals := []arrival{
		{at: -50, lo: 9, hi: 11},    // establishes the state
		{at: 150, lo: 11, hi: 13},   // closes the episode opened at 100: 50
		{at: 560, lo: 19, hi: 20.5}, // truth is 20 at 560: closes the episode opened at 300 (10.5 left [11,13]): 260
		{at: 700, lo: 20, hi: 22},   // truth 21 left [19,20.5] at 600: 100
	}
	out := newSliced(0, 10000, 8)
	c := replayStaleness(truth, arrivals, 0, 10000, 200, out, 0)
	var got []float64
	for i := range out.by {
		got = append(got, out.by[i]...)
	}
	want := []float64{0.05, 0.26, 0.1} // microseconds
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("sample %d = %g, want %g", i, got[i], want[i])
		}
	}
	if c.overGrace != 1 || c.unaccounted != 0 || c.deliveries != 3 {
		t.Errorf("counts %+v, want 1 over grace, 0 unaccounted, 3 deliveries", c)
	}

	// An episode that opens during the lead-in, at a negative due time, and
	// closes inside the window is a sample like any other.
	out = newSliced(0, 10000, 8)
	c = replayStaleness(
		[]truthPoint{{-5000, 1}, {-300, 9}},
		[]arrival{{at: -4000, lo: 0, hi: 2}, {at: 100, lo: 8, hi: 10}},
		0, 10000, 1000, out, 0)
	if got := out.count(); got != 1 || out.by[0][0] != 0.4 || c.unaccounted != 0 {
		t.Errorf("lead-in episode: %d samples %v, counts %+v; want one sample of 0.4", got, out.by[0], c)
	}
}
