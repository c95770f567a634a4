// Package hierarchy implements multi-level approximate caching, the first
// future-work direction of the paper's Section 5: "each data object resides
// on one source and there is a hierarchy of caches ... the precision of an
// approximation in one cache may affect the precision of derived
// approximations in other caches in the hierarchy."
//
// A Level sits between consumers (queries or a higher-level cache) and a
// parent (the source or a lower-level cache). Each level runs its own
// adaptive width controller per key, with the invariant that a derived
// approximation must contain its parent's approximation: level k's interval
// is always a superset of level k-1's, so validity at the source implies
// validity everywhere up the chain.
//
// Refresh flow generalizes the two-level protocol:
//
//   - an update that escapes level k's interval escapes all narrower levels
//     below it; the escape propagates upward level by level, each charging
//     its own value-initiated refresh cost and re-deriving its interval;
//   - a query at the top level that needs more precision walks down until it
//     reaches a level whose interval is precise enough — or the source —
//     charging one query-initiated refresh per hop descended.
//
// The per-level cost structure rewards the adaptive algorithm for keeping
// upper levels wide (absorbing churn) and lower levels as narrow as their
// consumers demand.
package hierarchy

import (
	"context"
	"fmt"
	"math"

	"apcache/internal/aperrs"
	"apcache/internal/core"
	"apcache/internal/interval"
)

// Rand is the randomness source for the probabilistic width adjustments.
type Rand interface {
	Float64() float64
}

// Config describes one hierarchy.
type Config struct {
	// Levels is the number of caches between consumers and the source
	// (>= 1). Level 0 is closest to the source.
	Levels int
	// Params configures every level's controllers. Cvr/Cqr are the costs
	// of one refresh hop between adjacent levels.
	Params core.Params
	// InitialWidth seeds each controller.
	InitialWidth float64
	// RNG drives the adjustments.
	RNG Rand
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Levels < 1 {
		return fmt.Errorf("hierarchy: Levels must be >= 1, got %d", c.Levels)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.InitialWidth < 0 || math.IsNaN(c.InitialWidth) {
		return fmt.Errorf("hierarchy: bad InitialWidth %g", c.InitialWidth)
	}
	if c.RNG == nil {
		return fmt.Errorf("hierarchy: nil RNG")
	}
	return nil
}

// levelEntry is one key's state at one level.
type levelEntry struct {
	ctrl *core.Controller
	iv   interval.Interval
}

// Hierarchy is a chain of caches over one source of exact values. It is not
// safe for concurrent use.
type Hierarchy struct {
	cfg    Config
	values map[int]float64
	// entries[level][key]; level 0 adjacent to the source.
	entries []map[int]*levelEntry

	vir, qir int
	cost     float64
}

// New builds a hierarchy.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:     cfg,
		values:  make(map[int]float64),
		entries: make([]map[int]*levelEntry, cfg.Levels),
	}
	for l := range h.entries {
		h.entries[l] = make(map[int]*levelEntry)
	}
	return h, nil
}

// Levels returns the number of cache levels.
func (h *Hierarchy) Levels() int { return h.cfg.Levels }

// Track registers a key with its initial value and derives an approximation
// at every level. Upper levels are at least as wide as lower ones: each
// level's interval is the union of its own controller's interval with the
// level below, preserving the containment invariant.
func (h *Hierarchy) Track(key int, v float64) {
	h.values[key] = v
	prev := interval.Exact(v)
	for l := 0; l < h.cfg.Levels; l++ {
		ctrl := core.NewController(h.cfg.Params, h.cfg.InitialWidth, h.cfg.RNG)
		iv := union(ctrl.NewInterval(v), prev)
		h.entries[l][key] = &levelEntry{ctrl: ctrl, iv: iv}
		prev = iv
	}
}

// Value returns the exact value at the source.
func (h *Hierarchy) Value(key int) (float64, bool) {
	v, ok := h.values[key]
	return v, ok
}

// At returns level l's approximation for key.
func (h *Hierarchy) At(level, key int) (interval.Interval, bool) {
	if level < 0 || level >= h.cfg.Levels {
		panic(fmt.Sprintf("hierarchy: level %d out of range 0..%d", level, h.cfg.Levels-1))
	}
	e, ok := h.entries[level][key]
	if !ok {
		return interval.Interval{}, false
	}
	return e.iv, true
}

// Top returns the approximation at the level consumers read (the last one).
func (h *Hierarchy) Top(key int) (interval.Interval, bool) {
	return h.At(h.cfg.Levels-1, key)
}

// Set applies an update at the source. The escape propagates upward from
// level 0: every level whose interval the new value escapes pays one
// value-initiated refresh hop and re-derives its interval (containing the
// refreshed interval below it); the first level that still contains the
// value stops the propagation. It returns the number of levels refreshed.
func (h *Hierarchy) Set(key int, v float64) int {
	if _, ok := h.values[key]; !ok {
		panic(fmt.Sprintf("hierarchy: Set of untracked key %d", key))
	}
	h.values[key] = v
	refreshed := 0
	prev := interval.Exact(v)
	for l := 0; l < h.cfg.Levels; l++ {
		e := h.entries[l][key]
		if e.iv.Valid(v) && e.iv.Contains(prev) {
			break
		}
		h.vir++
		h.cost += h.cfg.Params.Cvr
		e.iv = union(e.ctrl.RefreshInterval(core.ValueInitiated, v > e.iv.Hi, v), prev)
		prev = e.iv
		refreshed++
	}
	return refreshed
}

// Read serves a consumer needing result width at most delta for key. It
// reads down the hierarchy from the top: if a level's interval is narrow
// enough it answers; otherwise the query descends, paying one
// query-initiated hop per level crossed, ultimately reaching the exact
// source value. Every level crossed re-derives a narrowed interval on the
// way back up (the refreshed approximation subsequent queries use).
//
// The returned interval contains the exact value and has width <= delta.
func (h *Hierarchy) Read(key int, delta float64) interval.Interval {
	if _, ok := h.values[key]; !ok {
		panic(fmt.Sprintf("hierarchy: Read of untracked key %d", key))
	}
	top := h.cfg.Levels - 1
	// Descend while precision is insufficient.
	level := top
	for level >= 0 {
		e := h.entries[level][key]
		if e.iv.Width() <= delta {
			break
		}
		h.qir++
		h.cost += h.cfg.Params.Cqr
		level--
	}
	// The answer: a sufficient level's interval, or the exact source value.
	var answer interval.Interval
	if level >= 0 {
		answer = h.entries[level][key].iv
	} else {
		answer = interval.Exact(h.values[key])
	}
	// Every level crossed on the way down took a query-initiated refresh:
	// re-derive its interval around the answer (each containing the level
	// below) so subsequent queries see the narrowed approximations.
	prev := answer
	for l := level + 1; l <= top; l++ {
		e := h.entries[l][key]
		e.iv = union(e.ctrl.RefreshInterval(core.QueryInitiated, false, prev.Center()), prev)
		prev = e.iv
	}
	return answer
}

// ReadCtx is Read with the error-returning contract of API v1: an untracked
// key fails with an error matching aperrs.ErrUnknownKey instead of
// panicking, and a done context fails with its error before any refresh
// hop is charged. The hierarchy itself is in-memory and single-threaded, so
// cancellation cannot interrupt the descent once it starts; the check
// exists so a hierarchy read composes into cancellable call chains.
func (h *Hierarchy) ReadCtx(ctx context.Context, key int, delta float64) (interval.Interval, error) {
	if err := ctx.Err(); err != nil {
		return interval.Interval{}, err
	}
	if _, ok := h.values[key]; !ok {
		return interval.Interval{}, aperrs.UnknownKey(key)
	}
	return h.Read(key, delta), nil
}

// Stats reports cumulative refresh hops and cost.
type Stats struct {
	// ValueHops and QueryHops count refresh hops by kind.
	ValueHops, QueryHops int
	// Cost is the total hop cost.
	Cost float64
}

// Stats snapshots the counters.
func (h *Hierarchy) Stats() Stats {
	return Stats{ValueHops: h.vir, QueryHops: h.qir, Cost: h.cost}
}

// CheckInvariant verifies the containment chain for key: source value inside
// level 0, and each level inside the next. It returns an error describing
// the first violation, for tests and debugging.
func (h *Hierarchy) CheckInvariant(key int) error {
	v, ok := h.values[key]
	if !ok {
		return fmt.Errorf("hierarchy: %w", aperrs.UnknownKey(key))
	}
	prev := interval.Exact(v)
	for l := 0; l < h.cfg.Levels; l++ {
		e, ok := h.entries[l][key]
		if !ok {
			return fmt.Errorf("hierarchy: key %d missing at level %d", key, l)
		}
		if !e.iv.Valid(v) {
			return fmt.Errorf("hierarchy: level %d interval %v excludes value %g", l, e.iv, v)
		}
		if !e.iv.Contains(prev) {
			return fmt.Errorf("hierarchy: level %d interval %v does not contain level below %v", l, e.iv, prev)
		}
		prev = e.iv
	}
	return nil
}

// union returns the smallest interval containing both inputs.
func union(a, b interval.Interval) interval.Interval {
	return interval.Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi)}
}
