// Package watch implements the streaming subscription handle of API v1: a
// Watch turns the refreshes a cache applies behind the reader's back into an
// observable stream of Update values, one handle per caller.
//
// The design mirrors the server's push merge buffer on the consumer side: a
// producer (the client read loop, or a Store writer holding a shard lock)
// hands refreshes to Notify, which never blocks — it records the latest
// interval per key in a pending map and wakes a pump goroutine. The pump
// delivers updates in arrival order on a channel the consumer ranges over.
// While the consumer is slow, newer refreshes for a pending key overwrite
// the older ones (latest-wins coalescing), so the producer is never stalled
// and memory stays bounded at one pending entry per watched key. Every
// interval a consumer observes was a valid approximation when it was
// produced; coalescing only ever skips intermediate states, never the
// newest one.
package watch

import (
	"sync"

	"apcache/internal/aperrs"
	"apcache/internal/interval"
)

// EventKind classifies an Update: a per-key refresh, or a connection
// lifecycle event of the feed the watch rides on.
type EventKind uint8

const (
	// EventRefresh is an ordinary refresh: Key carries the observed key
	// and Interval its freshly installed approximation.
	EventRefresh EventKind = iota
	// EventDisconnected reports that the feed's connection dropped and an
	// automatic reconnect is in progress. Intervals delivered before this
	// event may go stale until EventReconnected arrives; the stream itself
	// stays open. Key is -1 and Interval is zero.
	EventDisconnected
	// EventReconnected reports that the feed's connection is back and the
	// watch's subscriptions have been replayed; the refreshes that follow
	// are live again. Key is -1 and Interval is zero.
	EventReconnected
)

// Update is one observed refresh (EventRefresh: the key and the freshly
// installed interval approximation) or a connection lifecycle event
// (EventDisconnected/EventReconnected: Key is -1).
type Update struct {
	Key      int
	Interval interval.Interval
	// Value is the exact-value estimate accompanying the interval on feeds
	// that supply one (continuous-query answer streams, via NotifyVal);
	// 0 on plain key-refresh feeds.
	Value float64
	Event EventKind
}

// outBuffer is the capacity of the Updates channel: enough to ride out
// consumer scheduling hiccups without coalescing, small enough that a truly
// slow consumer falls back to latest-wins promptly.
const outBuffer = 16

// Watch is a live subscription stream. Consumers range over Updates(); the
// channel closes when the watch is closed or its feed dies, and Err()
// reports which. All methods are safe for concurrent use.
type Watch struct {
	mu        sync.Mutex
	pending   map[int]Update // latest undelivered update per key
	order     []int          // pending keys in arrival order
	events    []EventKind    // undelivered lifecycle events, in order
	err       error          // terminal failure, if any
	closed    bool
	coalesced int // updates folded into a pending entry (latest-wins)

	kick chan struct{} // wakes the pump; capacity 1
	done chan struct{} // closed exactly once by Close/Fail
	out  chan Update   // closed by the pump on exit

	onClose func(*Watch) // unregisters the watch from its feed
}

// New returns a running watch. onClose, if non-nil, is called exactly once
// — before the stream shuts down — when the watch is closed or failed, so
// the feed can unregister it.
func New(onClose func(*Watch)) *Watch {
	w := &Watch{
		pending: make(map[int]Update),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		out:     make(chan Update, outBuffer),
		onClose: onClose,
	}
	go w.pump()
	return w
}

// Updates returns the stream of observed refreshes. The channel is closed
// when the watch is closed (Err returns nil) or its feed fails (Err returns
// the cause). Consumers that fall behind lose only intermediate states of a
// key, never its newest delivered so far.
func (w *Watch) Updates() <-chan Update { return w.out }

// Err returns the terminal error after Updates is closed: nil for a clean
// Close, the connection or feed failure otherwise.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Coalesced reports how many notifications were folded into a pending entry
// instead of delivered individually — the observability hook for the
// latest-wins policy.
func (w *Watch) Coalesced() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.coalesced
}

// Notify records a refresh for delivery. It never blocks: if an update for
// key is already pending, the newer interval replaces it (latest-wins).
// Safe to call from producers holding unrelated locks; calls after
// Close/Fail are no-ops.
func (w *Watch) Notify(key int, iv interval.Interval) {
	w.NotifyVal(key, iv, 0)
}

// NotifyVal is Notify carrying an exact-value estimate alongside the
// interval — the continuous-query answer feed, where the center estimate is
// part of the answer. Latest-wins coalescing applies to the pair as a unit.
func (w *Watch) NotifyVal(key int, iv interval.Interval, val float64) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if _, ok := w.pending[key]; ok {
		w.coalesced++
	} else {
		w.order = append(w.order, key)
	}
	w.pending[key] = Update{Key: key, Interval: iv, Value: val}
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// NotifyEvent records a connection lifecycle event for delivery. Unlike
// refreshes, events are never coalesced — a disconnect/reconnect pair is
// always observed as two updates, in order. Like Notify it never blocks and
// is a no-op after Close/Fail. Events are delivered ahead of the refreshes
// pending in the same pump run (a reconnect's replayed refreshes typically
// arrive after the event that announces them anyway).
func (w *Watch) NotifyEvent(ev EventKind) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.events = append(w.events, ev)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Close detaches the watch from its feed and ends the stream. Updates is
// closed (pending entries are discarded); Err stays nil. Closing twice, or
// after a failure, is a no-op. It never blocks on the consumer.
func (w *Watch) Close() error {
	w.shutdown(nil)
	return nil
}

// Fail ends the stream with a terminal error: the feed died underneath the
// watch (connection lost, client closed). Like Close, but Err reports why.
func (w *Watch) Fail(err error) {
	if err == nil {
		err = aperrs.ErrClosed
	}
	w.shutdown(err)
}

// shutdown runs the close-once protocol shared by Close and Fail.
func (w *Watch) shutdown(err error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.err = err
	w.mu.Unlock()
	if w.onClose != nil {
		w.onClose(w)
	}
	close(w.done)
}

// Registry maps keys to the watches observing them: the bookkeeping both
// feeds (the networked client and the in-process store) share. It is not
// goroutine-safe — each feed guards its registry with its own lock, which
// also serializes Add/Remove against that feed's Notify calls.
type Registry struct {
	byKey map[int][]*Watch
}

// Add registers w under every key in keys.
func (r *Registry) Add(w *Watch, keys []int) {
	if r.byKey == nil {
		r.byKey = make(map[int][]*Watch)
	}
	for _, k := range keys {
		r.byKey[k] = append(r.byKey[k], w)
	}
}

// Remove deletes w from every key in keys, dropping emptied entries so
// Empty reports the feed may skip notification entirely.
func (r *Registry) Remove(w *Watch, keys []int) {
	for _, k := range keys {
		ws := r.byKey[k]
		for i, cand := range ws {
			if cand == w {
				r.byKey[k] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(r.byKey[k]) == 0 {
			delete(r.byKey, k)
		}
	}
}

// Watching reports whether any watch observes key.
func (r *Registry) Watching(key int) bool { return len(r.byKey[key]) > 0 }

// Empty reports whether no watch is registered.
func (r *Registry) Empty() bool { return len(r.byKey) == 0 }

// Notify streams one refresh to every watch observing key. Never blocks.
func (r *Registry) Notify(key int, iv interval.Interval) {
	for _, w := range r.byKey[key] {
		w.Notify(key, iv)
	}
}

// All returns the deduplicated watches currently registered (a watch
// observing several keys appears once), leaving the registry intact: the
// broadcast path for connection lifecycle events, where every live watch is
// notified but stays subscribed.
func (r *Registry) All() []*Watch {
	var all []*Watch
	seen := make(map[*Watch]bool)
	for _, ws := range r.byKey {
		for _, w := range ws {
			if !seen[w] {
				seen[w] = true
				all = append(all, w)
			}
		}
	}
	return all
}

// Detach empties the registry and returns the deduplicated watches that
// were registered: the teardown path, where every live watch is failed with
// the feed's error.
func (r *Registry) Detach() []*Watch {
	all := r.All()
	r.byKey = nil
	return all
}

// pump moves pending updates onto the out channel in arrival order. It
// grabs the whole pending run under the lock, then delivers it; updates
// arriving while a delivery blocks coalesce into the next run. It owns the
// out channel and closes it on exit.
func (w *Watch) pump() {
	defer close(w.out)
	var run []Update
	for {
		select {
		case <-w.kick:
		case <-w.done:
			return
		}
		w.mu.Lock()
		run = run[:0]
		for _, ev := range w.events {
			run = append(run, Update{Key: -1, Event: ev})
		}
		w.events = w.events[:0]
		for _, k := range w.order {
			run = append(run, w.pending[k])
			delete(w.pending, k)
		}
		w.order = w.order[:0]
		w.mu.Unlock()
		for _, u := range run {
			select {
			case w.out <- u:
			case <-w.done:
				return
			}
		}
	}
}
