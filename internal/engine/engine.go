// Package engine is the sharded source host under apcache.Store and the
// networked server: the concurrent form of the paper's source-side design,
// written once and hosted twice. It owns the shard array (this file) and the
// journal — one value record per write, recovery, the one checkpoint (the
// only writer of learned widths, which are hints) and per-file compaction
// (journal.go) — and nothing else: the far side of a refresh (a cache, a
// connection queue, a standing query), the stats and the public API
// stay with the host, which calls Src directly under the shard lock it takes.
//
// Locking: a Shard's Mu guards its Src, its learned-width table and the
// host's per-shard state in Host — a shard's state lives once, under that
// lock, reads included. No Store call holds two shard locks. Only the
// server's multi-key requests take lock sets (Group, then LockSet), in
// ascending Idx order, because their reply must be queued before any newer
// push; a checkpoint or a compacting Commit holds one shard lock at a time.
// Host locks nest inside shard locks. A shard's random stream is drawn only
// by the controllers it hosts, which run only under Mu, so a fixed operation
// order draws a fixed sequence.
package engine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"apcache/internal/core"
	"apcache/internal/shard"
	"apcache/internal/source"
	"apcache/internal/wal"
)

// Config parameterizes New: the requested shard count (normalized by
// shard.Count), the parameters of every width controller the shards create,
// and the seed — shard i's random stream is Seed+i.
type Config struct {
	Shards       int
	Params       core.Params
	InitialWidth float64
	Seed         int64
}

// Shard owns one slice of the key space: the exact values, subscriptions and
// width controllers (Src) and the host's per-shard state (Host — the Store's
// cache, watches and refresh counts, the server's mute counts and refresh-cost
// estimate), all guarded by Mu. The trailing pad keeps two shards' mutexes off
// one cache line however the allocator packs them.
type Shard[H any] struct {
	Mu   sync.Mutex
	Src  *source.Source
	Idx  int
	Host H

	// widths is the last width a refresh learned per key. New subscriptions
	// warm-start from it — a client resubscribing after a restart, or to a
	// key another client already adapted, starts at the learned precision —
	// and only a checkpoint writes it. Empty and inert without a journal.
	// Only pairs under cache IDs >= 0 teach it: a host subscribes a pair whose
	// width is not the key's own under a negative ID (the server's
	// standing-query members, held at their query's per-key cap).
	widths map[int]float64
	recs   []wal.Record       // state's scratch; Rewrite keeps no reference
	spare  []*core.Controller // dropped by Mute, reset by the factory for new pairs
	full   atomic.Bool        // a Set overfilled the shard's log file; Commit compacts it

	_ [64]byte
}

// Engine is the shard array plus, once Attach has run, its journal.
type Engine[H any] struct {
	shards []*Shard[H]
	j      *journal // set by Attach before the engine serves; nil = in-memory
}

// New builds the shard array. host constructs shard i's host state; it runs
// once per shard, in ascending order.
func New[H any](cfg Config, host func(i int) H) *Engine[H] {
	e := &Engine[H]{shards: make([]*Shard[H], shard.Count(cfg.Shards))}
	for i := range e.shards {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		sh := &Shard[H]{Idx: i, Host: host(i), widths: make(map[int]float64)}
		sh.Src = source.New(func(cacheID, key int) core.WidthPolicy {
			w := cfg.InitialWidth
			if lw := sh.widths[key]; lw > 0 {
				w = lw
			}
			if n := len(sh.spare); n > 0 {
				c := sh.spare[n-1]
				sh.spare = sh.spare[:n-1]
				c.SetWidth(w)
				return c
			}
			return core.NewController(cfg.Params, w, rng)
		})
		e.shards[i] = sh
	}
	return e
}

// Shards returns the shard array, indexed by Shard.Idx.
func (e *Engine[H]) Shards() []*Shard[H] { return e.shards }

// For returns the shard owning key.
func (e *Engine[H]) For(key int) *Shard[H] {
	return e.shards[shard.Index(key, len(e.shards))]
}

// LockSet locks the shards at the given distinct, ascending indices.
func (e *Engine[H]) LockSet(sorted []int) {
	for _, i := range sorted {
		e.shards[i].Mu.Lock()
	}
}

// UnlockSet releases the locks LockSet took.
func (e *Engine[H]) UnlockSet(sorted []int) {
	for _, i := range sorted {
		e.shards[i].Mu.Unlock()
	}
}

// ShardSet is a server request's key list grouped by shard: Sorted holds
// the distinct shard indices the keys hash to, ascending (the order LockSet
// takes them in), and ByShard[i] the positions in the list of shard i's
// keys, in list order. It is scratch, reused list after list by one
// goroutine at a time, so grouping allocates nothing once warm.
type ShardSet struct {
	Sorted  []int
	ByShard [][]int
}

// Group fills ss with keys' shards, replacing what it held.
func (e *Engine[H]) Group(ss *ShardSet, keys []int64) {
	if len(ss.ByShard) != len(e.shards) { // first use, or another engine's
		ss.ByShard = make([][]int, len(e.shards))
	} else {
		for _, i := range ss.Sorted {
			ss.ByShard[i] = ss.ByShard[i][:0]
		}
	}
	ss.Sorted = ss.Sorted[:0]
	for pos, k := range keys {
		i := shard.Index(int(k), len(e.shards))
		if len(ss.ByShard[i]) == 0 {
			ss.Sorted = append(ss.Sorted, i)
		}
		ss.ByShard[i] = append(ss.ByShard[i], pos)
	}
	slices.Sort(ss.Sorted)
}

// UnknownKey returns the first of keys no shard's source hosts. The caller
// holds every involved shard's lock, so a multi-key request checked by it is
// all-or-nothing: it is refused before its first read or subscription, or
// every key exists for as long as it runs (keys are never deleted).
func (e *Engine[H]) UnknownKey(keys []int64) (int64, bool) {
	for _, k := range keys {
		if _, ok := e.For(int(k)).Src.Value(int(k)); !ok {
			return k, true
		}
	}
	return 0, false
}

// Set writes key's exact value and journals it; the widths its refreshes
// learned wait for the next checkpoint, and a record that overfills the
// shard's log file marks it for Commit to compact. The caller holds sh's
// lock, delivers the refreshes (the source's scratch slice, valid until the
// shard's next Set) to its far side under it, and passes the token to Commit.
//
// Set is also how a host seeds a key: on a key nobody subscribes to it fires
// nothing and journals one OpValue, on a live key it is an update. There is
// deliberately no refresh-free overwrite — one under live subscribers would
// leave every held interval that misses the new value silently invalid.
func (e *Engine[H]) Set(sh *Shard[H], key int, v float64) ([]source.Refresh, uint64) {
	refreshes := sh.Src.Set(key, v)
	j := e.live()
	if j == nil {
		return refreshes, 0
	}
	for _, r := range refreshes {
		if r.CacheID >= 0 {
			sh.widths[r.Key] = r.OriginalWidth
		}
	}
	tok := j.log.Stage(sh.Idx, wal.Record{Op: wal.OpValue, Key: int64(key), Val: v})
	if tok == 0 { // the log refuses only after a sticky failure
		j.note(nil)
	} else if j.over(sh.Idx, sh.Src.Keys()) {
		sh.full.Store(true)
	}
	return refreshes, tok
}

// Read is the query-initiated refresh of (cacheID, key), stamped with mark
// (source.Source.ReadMarked); it reports false for an unknown key. It
// journals nothing: the width it learned waits for the next checkpoint, like
// Set's. The caller holds sh's lock.
func (e *Engine[H]) Read(sh *Shard[H], cacheID, key int, mark uint64) (source.Refresh, bool) {
	r, ok := sh.Src.ReadMarked(cacheID, key, mark)
	if ok && cacheID >= 0 && e.live() != nil {
		sh.widths[key] = r.OriginalWidth
	}
	return r, ok
}

// LearnedWidth reports the last width learned for key. The caller holds sh's
// lock.
func (sh *Shard[H]) LearnedWidth(key int) (float64, bool) {
	w, ok := sh.widths[key]
	return w, ok
}

// Mute is source.Source.Mute that keeps the dropped pair's controller for
// the shard's next new pair, so a refused miss allocates nothing; spare stays
// within the shard's peak pair count. The caller holds sh's lock.
func (sh *Shard[H]) Mute(cacheID, key int, seen uint64) bool {
	p, ok := sh.Src.Mute(cacheID, key, seen)
	if c, isCtl := p.(*core.Controller); isCtl {
		sh.spare = append(sh.spare, c)
	}
	return ok
}
