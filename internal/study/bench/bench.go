// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's performance study (Section 4). Each
// experiment is a named runner producing tables and charts whose rows and
// series mirror the paper's; cmd/apcache-sim executes them by id and
// bench_test.go exposes each as a testing.B benchmark.
//
// Absolute numbers differ from the paper (the network-monitoring substrate
// is synthetic; see internal/study/trace), but the shapes the paper reports —
// which policy wins, roughly by what factor, and where crossovers fall — are
// preserved and asserted by the shape tests in this package.
package bench

import (
	"fmt"
	"sort"
	"sync"

	"apcache/internal/study/plot"
	"apcache/internal/study/trace"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks run durations and sweep densities for CI and unit
	// tests; shapes remain, precision drops.
	Quick bool
	// Seed drives all randomness; runs are deterministic given (Quick,
	// Seed).
	Seed int64
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	// Tables hold the rows the paper's figures plot.
	Tables []*plot.Table
	// Charts are ASCII renderings of the same data.
	Charts []*plot.Chart
	// Notes record paper-vs-measured observations.
	Notes []string
}

// Note appends a formatted note.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one registered figure/table reproduction.
type Experiment struct {
	// ID is the registry key (e.g. "fig3").
	ID string
	// Title describes the artifact reproduced.
	Title string
	// Paper summarizes what the paper's version shows.
	Paper string
	// Run executes the experiment.
	Run func(Options) (*Report, error)
}

var registry = map[string]*Experiment{}
var registryOrder []string

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
	registryOrder = append(registryOrder, e.ID)
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in registration order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registryOrder))
	for _, id := range registryOrder {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// traceCache memoizes generated network-monitoring traces per (hosts,
// duration, seed) so multi-series experiments reuse the same data, matching
// the paper's single recorded data set.
var (
	traceMu    sync.Mutex
	traceCache = map[string]*trace.Trace{}
)

// netmonTrace returns the deterministic synthetic network-monitoring trace.
func netmonTrace(hosts, duration int, seed int64) (*trace.Trace, error) {
	key := fmt.Sprintf("%d/%d/%d", hosts, duration, seed)
	traceMu.Lock()
	defer traceMu.Unlock()
	if tr, ok := traceCache[key]; ok {
		return tr, nil
	}
	cfg := trace.Config{Hosts: hosts * 2, Duration: duration, Window: 60, MaxRate: trace.DefaultMaxRate, Seed: seed}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	top := tr.TopN(hosts)
	traceCache[key] = top
	return top, nil
}

// thetaCosts maps a cost factor theta = 2*Cvr/Cqr onto the (Cvr, Cqr) pair
// the study uses: Cqr = 2 (request + response), Cvr = theta (Section 4.3:
// theta = 1 for plain update propagation, theta = 4 for two-phase locking).
func thetaCosts(theta float64) (cvr, cqr float64) { return theta, 2 }
