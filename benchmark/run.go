package main

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runEnv is one run of one workload.
type runEnv struct {
	ctx      context.Context
	workload string
	seed     int64
	dur      time.Duration // the measured time, -seconds
	traced   bool
	dir      string  // scratch directory of this run, removed when it ends
	tr       *tracer // nil in an untraced run
	info     []string
	cpus     cpuPlan
}

// cpuPlan keeps the load generator and the system under test off each
// other's CPUs: the parent's threads run on the lower half, the host's on
// the upper half. On a shared two-CPU box, whether the two processes happen
// to collide on a CPU is the largest single source of run-to-run spread;
// pinned, each side's capacity is that of its own CPUs.
type cpuPlan struct {
	parent, host uint64
}

func allCPUs() uint64 { return uint64(1)<<min(runtime.NumCPU(), 63) - 1 }

func planCPUs() cpuPlan {
	n := min(runtime.NumCPU(), 63)
	if n < 2 {
		return cpuPlan{parent: 1, host: 1}
	}
	lower := uint64(1)<<(n/2) - 1
	return cpuPlan{parent: lower, host: allCPUs() &^ lower}
}

func (e *runEnv) paced() time.Duration { return e.dur / 2 }
func (e *runEnv) sat() time.Duration   { return e.dur - e.dur/2 }

// notef adds a line to the human-readable report.
func (e *runEnv) notef(format string, args ...any) {
	e.info = append(e.info, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envBlock is the environment a result was recorded in.
type envBlock struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs_parent"`
	HostGOMAXPROCS int    `json:"gomaxprocs_host"`
	GoVersion      string `json:"go_version"`
	CPU            string `json:"cpu_model"`
	Transport      string `json:"transport"`
}

// result is one run's outcome: what the contract line carries, plus what
// the compare mode and a reader need to interpret it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int64       `json:"samples,omitempty"`
	Also      map[string]float64     `json:"also,omitempty"` // measured in this run but not of its kind
	Env       envBlock               `json:"env"`
	When      string                 `json:"recorded_at"`
}

// outcome is what a workload hands back: every metric it measured, by
// name, the sample count behind each timing, and the op and failure counts.
type outcome struct {
	values         map[string]float64
	samples        map[string]int64
	attempted      int64
	failed         int64
	hostGOMAXPROCS int
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int64{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }
func (o *outcome) setN(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = int64(n)
}

// fail counts n failed operations or checks and says why once.
func (o *outcome) fail(e *runEnv, n int, why string) {
	if n <= 0 {
		return
	}
	o.failed += int64(n)
	e.notef("FAILED %d: %s", n, why)
}

var runners = map[string]func(*runEnv) (*outcome, error){
	wlQueryZipf:       runQueryZipf,
	wlPushFanout:      runPushFanout,
	wlStandingDurable: runStandingDurable,
	wlStoreMixed:      runStoreMixed,
}

// runWorkload runs one workload once and turns its outcome into a result
// carrying exactly the metrics of the requested kind: the end-to-end ones
// from an untraced run, the per-layer ones from a traced run.
func runWorkload(ctx context.Context, name string, seed int64, dur time.Duration, traced bool, scratch, spanOut string) (*result, []string, error) {
	run, ok := runners[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if name != wlStoreMixed && !reexecSupported {
		return nil, nil, invalidf("workload %s needs a host child process, which this platform cannot start", name)
	}
	dir := filepath.Join(scratch, fmt.Sprintf("run-%d-%s", os.Getpid(), name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, invalidf("scratch directory: %v", err)
	}
	defer os.RemoveAll(dir)
	e := &runEnv{ctx: ctx, workload: name, seed: seed, dur: dur, traced: traced, dir: dir}
	if name != wlStoreMixed {
		e.cpus = planCPUs()
		if err := pinProcess(e.cpus.parent); err != nil {
			e.cpus = cpuPlan{parent: allCPUs(), host: allCPUs()}
			e.notef("CPU pinning unavailable (%v): load generator and host share all CPUs", err)
		} else {
			defer pinProcess(allCPUs()) //nolint:errcheck // it worked a moment ago with a smaller mask
		}
		// Every load-generating goroutine sleeps in the kernel between due
		// times and keeps its scheduler slot while it does; the client
		// library's own goroutines get one slot per CPU beside them.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bits.OnesCount64(e.cpus.parent) + connCount()))
	}
	if traced {
		e.tr = &tracer{}
	}
	out, err := run(e)
	if err != nil {
		return nil, e.info, err
	}
	if ctx.Err() != nil {
		return nil, e.info, ctx.Err()
	}
	if traced && spanOut != "" {
		if err := e.tr.write(spanOut, name, seed); err != nil {
			return nil, e.info, err
		}
		e.notef("spans: %d written to %s", len(e.tr.spans), spanOut)
	}
	defs := endToEnd
	trace := 0
	if traced {
		defs, trace = perLayer, 1
	}
	res := &result{
		Workload: name, Seed: seed, Trace: trace, Seconds: dur.Seconds(),
		Attempted: out.attempted, Failed: out.failed, Correct: out.failed == 0,
		Metrics: map[string]metricValue{}, Samples: map[string]int64{},
		Env: envBlock{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), HostGOMAXPROCS: out.hostGOMAXPROCS,
			GoVersion: runtime.Version(), CPU: cpuModel(),
			Transport: fmt.Sprintf("loopback TCP (127.0.0.1), parent on CPUs %#x, host on CPUs %#x of one machine", e.cpus.parent, e.cpus.host),
		},
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if name == wlStoreMixed {
		res.Env.Transport = "none (in-process Store)"
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: out.values[d.Name], Unit: d.Unit}
		if n, ok := out.samples[d.Name]; ok {
			res.Samples[d.Name] = n
		}
	}
	// Anything a run measured beyond its own kind of metric is still worth
	// a line for the reader (the traced run's throughput, the demoted
	// metrics of an untraced run).
	var extra []string
	for k := range out.values {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	res.Also = map[string]float64{}
	for _, k := range extra {
		e.notef("also: %s = %.6g", k, out.values[k])
		res.Also[k] = out.values[k]
	}
	return res, e.info, nil
}

// repeatSetup sets the system up setupRepeats times, tears all but the
// last one down again, and returns the last one with the median set-up
// time. Set-up is everything between "inputs are on disk" and "the measured
// window can open": process start, seeding, dial, subscribe or register,
// and the warm-up work.
func repeatSetup[T any](e *runEnv, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			discard(s)
			continue
		}
		last = s
	}
	return last, median(times), nil
}

// checkLag makes a run invalid when an open loop ran too late to mean
// anything.
func checkLag(what string, p50us float64) error {
	if p50us > float64(maxLagP50)/1e3 {
		return invalidf("%s lag p50 %.0f us exceeds %v: the generator, not the system, was the bottleneck", what, p50us, maxLagP50)
	}
	return nil
}
