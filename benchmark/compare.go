package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json: exactly the keys the benchmark contract
// allows. compare reads the bounds from it; the smoke test holds it and the
// binary to the same names.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the driver judges spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		if n == 1 {
			return x[0], x[0], x[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the distance between the first and third quartile as a share
// of the median.
func spreadOf(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain prints, per workload and metric, each side's median and
// quartiles, the spread against the metric's bound, and a verdict:
//
//	ok          b's median is not worse than a's by more than the bound
//	WORSE       it is, and the spread is small enough to say so
//	better      every run of b reads better than every run of a
//	unresolved  the run-to-run spread exceeds the bound, so neither
//
// Per-layer metrics have no bound; they get medians and spreads only.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	bench := fs.String("bench", "BENCHMARK.json", "the benchmark definition carrying the bounds")
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-bench BENCHMARK.json] a.json b.json")
		return exitUsage
	}
	var def benchmarkFile
	if err := readJSON(*bench, &def); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return exitUsage
	}
	a, err := readResults(fs.Arg(0))
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no results", fs.Arg(0))
	}
	var b []result
	if err == nil {
		b, err = readResults(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return exitUsage
	}
	// An end-to-end metric is read from untraced runs only. A per-layer
	// metric is read from whatever runs the file holds: a traced run carries
	// it as a metric, an untraced run as one of its "also" values (the
	// timed.* ones), so a file should hold runs of one kind.
	collect := func(rs []result, wl, metric string, endToEnd bool) []float64 {
		var v []float64
		for _, r := range rs {
			if r.Workload != wl || endToEnd && r.Trace != 0 {
				continue
			}
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			} else if x, ok := r.Also[metric]; ok && !endToEnd {
				v = append(v, x)
			}
		}
		return v
	}
	code := exitOK
	fmt.Printf("%-18s %-30s %-8s | %-38s | %-38s | %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "spread", "delta", "bound", "verdict")
	row := func(wl, name, unit, better string, bound float64) {
		va, vb := collect(a, wl, name, bound > 0), collect(b, wl, name, bound > 0)
		if len(va) == 0 && len(vb) == 0 {
			return
		}
		side := func(v []float64) string {
			q1, q2, q3 := quartiles(v)
			return fmt.Sprintf("%11.5g [%10.5g, %10.5g] (%d)", q2, q1, q3, len(v))
		}
		spread := spreadOf(va)
		if s := spreadOf(vb); s > spread {
			spread = s
		}
		_, ma, _ := quartiles(va)
		_, mb, _ := quartiles(vb)
		// delta is how much worse b's median is, as a share of a's.
		delta := 0.0
		if ma != 0 && len(vb) > 0 {
			delta = (mb - ma) / ma
			if better == "higher" {
				delta = -delta
			}
		}
		verdict := ""
		if bound > 0 && len(va) > 0 && len(vb) > 0 {
			switch {
			case spread > bound && allBetter(va, vb, better):
				verdict = "better"
			case spread > bound:
				verdict = "unresolved"
			case delta > bound:
				verdict = "WORSE"
				code = exitFailed
			default:
				verdict = "ok"
			}
		}
		boundText := "-"
		if bound > 0 {
			boundText = fmt.Sprintf("%5.1f%%", 100*bound)
		}
		fmt.Printf("%-18s %-30s %-8s | %-38s | %-38s | %6.1f%% %+6.1f%% %6s  %s\n",
			wl, name, unit, side(va), side(vb), 100*spread, 100*delta, boundText, verdict)
	}
	for _, wl := range workloadNames {
		for _, m := range def.EndToEnd {
			row(wl, m.Name, m.Unit, m.Better, m.Bound)
		}
		for _, m := range def.PerLayer {
			row(wl, m.Name, m.Unit, m.Better, 0)
		}
	}
	return code
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	minA, maxA := a[0], a[0]
	for _, v := range a {
		minA, maxA = min(minA, v), max(maxA, v)
	}
	for _, v := range b {
		if better == "higher" && v <= maxA || better != "higher" && v >= minA {
			return false
		}
	}
	return true
}
