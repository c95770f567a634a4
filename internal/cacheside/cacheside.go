// Package cacheside is the cache side of a networked client without its
// transport: the store of interval approximations, the watches over keys, the
// standing-query table, the counters, and the eviction protocol's session
// state — the mute queue and the reply count. It has no lock, no socket and
// no wire type; like cache.Cache and watch.Registry, its owner's lock guards
// it, and the owner carries what it decides over whatever wire it speaks.
//
// It has no query code. A bounded query's lookups are Gets, one per key, in
// order, which the owner takes under one acquisition of its lock
// (query.Held) before it plans over them with query.Plan — the same Gets
// apcache.Store takes, each under its key's shard lock.
//
// # Evictions and mutes
//
// The store is smaller than the key space, and the paper keeps evictions
// silent: no message is sent for one. A Side keeps that, and still lets the
// source stop pushing refreshes it would throw away, by handing its owner the
// keys it does not hold to ride on a request the owner sends anyway
// (Krishnamurthy & Wills' piggybacked invalidation, WWW7 1998). The source
// drops those subscriptions; a later read or subscribe starts one afresh.
// Four rules make this safe while replies are in flight. The cache side's
// three follow; the source's, R4, and the safety argument are in
// internal/source.
//
//   - R1. A push never admits a key the store does not hold; only a reply
//     can. Watches are notified either way.
//   - R2. A key an install leaves outside the store (evicted, rejected, or
//     ignored under R1) is queued unless a watch needs its pushes. TakeMutes
//     hands out the queued keys still not held and still unwatched together
//     with the reply count, and the owner sends them on the request it binds
//     to its session in that same critical section.
//   - R3. The reply count counts the session's reply frames, each only once
//     its installs are complete: Reply follows the frame's Installs.
//
// A lost or refused mute heals itself: the key's next push is ignored under
// R1 and queues it again. The queue and the count belong to one stream;
// Reset restarts both.
package cacheside

import (
	"sort"

	"apcache/internal/cache"
	"apcache/internal/interval"
	"apcache/internal/query"
	"apcache/internal/watch"
)

// Query is one standing continuous query: enough to register it again under
// the same QID after a reconnect, and the watch its answers feed.
type Query struct {
	QID   uint64 // assigned by AddQuery
	Kind  query.AggKind
	Delta float64
	Keys  []int
	W     *watch.Watch
}

// Stats counts pushes, exact reads, keys announced (handed out by TakeMutes),
// pushes ignored under R1, and the standing queries registered.
type Stats struct {
	ValueRefreshes, QueryRefreshes int
	MutesSent, PushesIgnored       int
	Queries                        int
	Cache                          cache.Stats
}

// Side is the cache side of one client. It is not safe for concurrent use.
type Side struct {
	store    *cache.Cache
	watchers watch.Registry
	queries  map[uint64]*Query
	nextQID  uint64
	muteq    map[int]struct{} // keys waiting to be announced (R2)
	seen     uint64           // reply frames installed this session (R3)
	st       Stats            // counters; Queries and Cache are filled by Stats
}

// New returns a cache side whose store holds at most capacity intervals
// (cache.New: use first, width second).
func New(capacity int) *Side {
	return &Side{store: cache.New(capacity), queries: make(map[uint64]*Query), muteq: make(map[int]struct{})}
}

// Install puts a refresh's interval into the store and streams it to the
// watches observing key. A push (value-initiated) replaces a held entry but
// never admits one (R1); whatever key the install leaves outside the store —
// the victim, the rejected candidate, the ignored push's — is queued (R2).
func (s *Side) Install(key int, iv interval.Interval, originalWidth float64, push bool) {
	held := s.store.Contains(key)
	if push {
		s.st.ValueRefreshes++
	}
	if push && !held {
		s.st.PushesIgnored++
		s.queueMute(key)
	} else if victim, evicted := s.store.Put(key, iv, originalWidth); evicted {
		s.queueMute(victim)
	} else if !held && !s.store.Contains(key) {
		s.queueMute(key) // the candidate lost to every resident
	}
	s.watchers.Notify(key, iv)
}

// queueMute queues a key the store does not hold, unless a watch consumes its
// pushes: such a key must stay live at the source.
func (s *Side) queueMute(key int) {
	if !s.watchers.Watching(key) {
		s.muteq[key] = struct{}{}
	}
}

// Reply counts one reply frame of the session, after its installs (R3).
func (s *Side) Reply() { s.seen++ }

// Seen returns the session's reply count.
func (s *Side) Seen() uint64 { return s.seen }

// Queued returns how many keys wait to be announced.
func (s *Side) Queued() int { return len(s.muteq) }

// TakeMutes moves up to max queued keys onto dst, keeping those still not held
// and still unwatched, and returns them with the reply count to judge them
// against, sampled in the same call (R2). Leftovers stay queued. A frame that
// then fails to reach the source loses its mutes; R1 re-queues such a key at
// its next push.
func (s *Side) TakeMutes(dst []int64, max int) (seen uint64, keys []int64) {
	n := len(dst)
	for k := range s.muteq {
		if len(dst) >= max {
			break
		}
		delete(s.muteq, k)
		if !s.store.Contains(k) && !s.watchers.Watching(k) {
			dst = append(dst, int64(k))
		}
	}
	s.st.MutesSent += len(dst) - n
	return s.seen, dst
}

// Drop removes key from the store and queues it: an unsubscribe.
func (s *Side) Drop(key int) {
	s.store.Drop(key)
	s.queueMute(key)
}

// Get returns the held interval for key, crediting the lookup.
func (s *Side) Get(key int) (interval.Interval, bool) { return s.store.Get(key) }

// Held returns how many keys the store holds, crediting no lookup.
func (s *Side) Held() int { return s.store.Len() }

// Fetched counts n query-initiated refreshes: exact values the owner read.
func (s *Side) Fetched(n int) { s.st.QueryRefreshes += n }

// Watch registers w under keys: every install of one reaches it, and none is
// queued while it watches.
func (s *Side) Watch(w *watch.Watch, keys []int) { s.watchers.Add(w, keys) }

// Unwatch removes w from keys. A key left neither held nor watched is queued
// at its next push, ignored under R1.
func (s *Side) Unwatch(w *watch.Watch, keys []int) { s.watchers.Remove(w, keys) }

// AddQuery registers q under the next QID, which it writes into q.
func (s *Side) AddQuery(q *Query) {
	s.nextQID++
	q.QID = s.nextQID
	s.queries[q.QID] = q
}

// RemoveQuery unregisters q, reporting whether it was registered.
func (s *Side) RemoveQuery(q *Query) bool {
	if s.queries[q.QID] != q {
		return false
	}
	delete(s.queries, q.QID)
	return true
}

// HasQuery reports whether q is registered.
func (s *Side) HasQuery(q *Query) bool { return s.queries[q.QID] == q }

// Answer routes a standing query's answer to its watch; an answer for a QID
// not registered is dropped.
func (s *Side) Answer(qid uint64, iv interval.Interval, value float64) {
	if q := s.queries[qid]; q != nil {
		q.W.NotifyVal(int(qid), iv, value)
	}
}

// Queries returns the standing queries in QID order.
func (s *Side) Queries() []*Query {
	qs := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].QID < qs[j].QID })
	return qs
}

// Watches returns every open watch, over keys and over queries, once each,
// leaving all registered.
func (s *Side) Watches() []*watch.Watch {
	ws := s.watchers.All()
	for _, q := range s.queries {
		ws = append(ws, q.W)
	}
	return ws
}

// Detach unregisters every watch and query and returns the watches, once
// each, for the owner to fail outside its lock; their unregister hooks then
// find nothing to remove.
func (s *Side) Detach() []*watch.Watch {
	ws := s.Watches()
	s.watchers = watch.Registry{}
	clear(s.queries)
	return ws
}

// Reset starts a new session: the reply count restarts and the mute queue
// empties. It returns, sorted, the keys the ended stream had pairs for: every
// key held (an interval nobody refreshes would be served stale for good) and
// every key watched.
func (s *Side) Reset() []int {
	s.seen = 0
	clear(s.muteq)
	keys := s.store.Keys()
	for _, k := range s.watchers.Keys() {
		if !s.store.Contains(k) {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

// Stats snapshots the counters.
func (s *Side) Stats() Stats {
	st := s.st
	st.Queries, st.Cache = len(s.queries), s.store.Stats()
	return st
}
