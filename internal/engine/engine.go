// Package engine is the sharded source host under apcache.Store and the
// networked server: the concurrent form of the paper's source-side design,
// written once and hosted twice. It owns the shard array (this file) and the
// journal — staging, recovery, the one checkpoint and its compactor
// (journal.go) — and nothing else: the far side of a refresh (a seqlock
// cache, a connection queue, a standing query), the stats and the public API
// stay with the host, which calls Src directly under the shard lock it takes.
//
// Locking: a Shard's Mu guards its Src, its learned-width table and the
// host's per-shard state in Host — a shard's state lives once, under that
// lock (the one exception is documented where it lives: reads of the Store's
// seqlock cache). Several shard locks are only ever taken in ascending Idx
// order (LockSet), which keeps overlapping multi-key requests deadlock-free; a
// checkpoint holds one shard lock at a time. Host
// locks nest inside shard locks. A shard's random stream is drawn only by the
// controllers it hosts, which run only under Mu, so a fixed operation order
// draws a fixed sequence.
package engine

import (
	"math/rand"
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
// seqlock cache and refresh counts, the server's mute counts and refresh-cost
// estimate), all guarded by Mu. The trailing pad keeps two shards' mutexes off
// one cache line however the allocator packs them.
type Shard[H any] struct {
	Mu   sync.Mutex
	Src  *source.Source
	Idx  int
	Host H

	// widths is the last width journaled per key. New subscriptions
	// warm-start from it — a client resubscribing after a restart, or to a
	// key another client already adapted, starts at the learned precision —
	// and a checkpoint re-emits it. Empty and inert without a journal.
	widths map[int]float64
	recs   []wal.Record // Set's staging scratch; wal.Stage copies before returning
	keys   atomic.Int64 // Src.Keys(), published for the compaction trigger

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

// Set writes key's exact value and journals it with the width adjustment of
// every value-initiated refresh it fired. The caller holds sh's lock, delivers
// the refreshes (the source's scratch slice, valid until the shard's next
// Set) to its far side under it, and passes the token to Commit afterwards.
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
	sh.keys.Store(int64(sh.Src.Keys()))
	recs := append(sh.recs[:0], wal.Record{Op: wal.OpValue, Key: int64(key), Val: v})
	for _, r := range refreshes {
		sh.widths[r.Key] = r.OriginalWidth
		recs = append(recs, wal.Record{Op: wal.OpWidth, Key: int64(r.Key), Val: r.OriginalWidth})
	}
	sh.recs = recs
	return refreshes, j.stage(sh.Idx, recs...)
}

// StageWidth journals the width a query-initiated refresh of key learned (the
// value is unchanged, so one OpWidth captures it). The caller holds sh's lock
// and either commits after releasing it or — when it must not reply before
// the width is durable, like the server's exact read — while still holding it.
func (e *Engine[H]) StageWidth(sh *Shard[H], key int, w float64) uint64 {
	j := e.live()
	if j == nil {
		return 0
	}
	sh.widths[key] = w
	return j.stage(sh.Idx, wal.Record{Op: wal.OpWidth, Key: int64(key), Val: w})
}

// LearnedWidth reports the last width journaled for key. The caller holds
// sh's lock.
func (sh *Shard[H]) LearnedWidth(key int) (float64, bool) {
	w, ok := sh.widths[key]
	return w, ok
}
