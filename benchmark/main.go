// Command benchmark is the apcache benchmark: four workloads, three of them
// against a real host process over loopback TCP, with end-to-end metrics
// taken in the load-generating parent and per-layer metrics from a separate
// traced run. See README.md beside this file.
//
//	benchmark -workload query_zipf -seed 1 -seconds 20 -trace 0
//	benchmark -seed 1                         # all four workloads
//	benchmark -seed 1 -trace 1 -out spans/    # the traced run
//	benchmark -seed 1 -repeat 5 -json a.json  # a set of runs for compare
//	benchmark compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Exit codes.
const (
	exitOK      = 0
	exitFailed  = 1 // a correctness check failed
	exitInvalid = 2 // the run says nothing about the system
	exitUsage   = 3
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		role     = flag.String("role", "run", "internal: 'host' re-executes this binary as the host child")
		config   = flag.String("config", "", "internal: host configuration file")
		workload = flag.String("workload", "all", "workload to run: query_zipf, push_fanout, standing_durable, store_mixed, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 runs the traced run (per-layer metrics, span file); 0 the end-to-end run")
		out      = flag.String("out", "", "traced run: directory for the span files (default: the scratch directory's spans/)")
		jsonOut  = flag.String("json", "", "append every run's result to this file, one JSON object per line, for 'benchmark compare'")
		repeat   = flag.Int("repeat", 1, "run each selected workload this many times")
		scratch  = flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for inputs, reports and WAL directories; each run removes its own")
	)
	flag.Parse()
	if *role == "host" {
		os.Exit(hostMain(*config))
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(exitUsage)
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	abs, err := filepath.Abs(*scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(exitUsage)
	}
	spanDir := *out
	if spanDir == "" {
		spanDir = filepath.Join(filepath.Dir(abs), "spans")
	}

	// SIGINT and SIGTERM cancel the run: workloads stop, host children are
	// killed and scratch directories removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := exitOK
	var last *result
	for _, name := range names {
		for r := 0; r < *repeat; r++ {
			spanOut := ""
			if *trace == 1 {
				spanOut = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.spans.json", name, *seed))
			}
			dur := time.Duration(*seconds * float64(time.Second))
			res, info, err := runWorkload(ctx, name, *seed, dur, *trace == 1, abs, spanOut)
			if err != nil {
				for _, line := range info {
					fmt.Println("  " + line)
				}
				switch {
				case errors.Is(err, context.Canceled):
					fmt.Fprintln(os.Stderr, "benchmark: interrupted")
					os.Exit(130)
				case isInvalid(err):
					fmt.Printf("INVALID RUN (%s, seed %d): %v\n", name, *seed, err)
					os.Exit(exitInvalid)
				default:
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(exitUsage)
				}
			}
			report(res, info)
			if *jsonOut != "" {
				if err := appendResult(*jsonOut, res); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(exitUsage)
				}
			}
			if !res.Correct {
				code = exitFailed
			}
			last = res
		}
	}
	// The contract line: the last line of standard output, exactly these
	// keys. With several workloads it is the last one's; use -json for all.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(exitUsage)
	}
	fmt.Println(string(line))
	os.Exit(code)
}

// report prints one run for a reader: environment, what ran, every metric
// by name with its unit and the sample count behind it, and the verdict.
func report(res *result, info []string) {
	kind := "end-to-end (tracing off)"
	defs := endToEnd
	if res.Trace == 1 {
		kind, defs = "per-layer (traced run)", perLayer
	}
	fmt.Printf("== %s  seed %d  %.3g s measured  %s\n", res.Workload, res.Seed, res.Seconds, kind)
	fmt.Printf("   env: nproc=%d GOMAXPROCS parent=%d host=%d %s cpu=%q; traffic: %s\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.HostGOMAXPROCS, res.Env.GoVersion, res.Env.CPU, res.Env.Transport)
	for _, line := range info {
		fmt.Println("   " + line)
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		n := ""
		if c, ok := res.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("   %-32s %14.6g %-9s %s is better%s\n", d.Name, m.Value, m.Unit, d.Better, n)
	}
	fmt.Printf("   correct=%v attempted=%d failed=%d fail_ratio=%.3g (base: attempted)\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
}

func appendResult(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
