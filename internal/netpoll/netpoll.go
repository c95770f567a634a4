// Package netpoll provides the readiness machinery for the server's
// event-driven connection core: an OS poller that watches many connection
// file descriptors from one goroutine (epoll on Linux; other platforms
// report Supported() == false and the server falls back to its
// goroutine-per-connection core).
//
// The poller is deliberately one-shot: every registered descriptor is
// disarmed when its readiness is reported and must be re-armed with Rearm
// once its owner has drained it. That gives the dispatch layer exactly-one
// in-flight read per connection without any per-connection locking, and it
// composes with level-triggered semantics — re-arming a descriptor that
// still has buffered bytes fires again immediately.
//
// Registering a socket here does not conflict with the Go runtime's own
// netpoller: an fd may be a member of any number of epoll sets, and the
// connections driven through this package never block in conn.Read, so the
// runtime's poller simply has no read waiters for them.
//
// A poller stops when its epoll descriptor closes: the wait loop parks on
// that descriptor through the runtime netpoller, so Close wakes it and
// Wait reports ErrClosed. There is no separate wakeup channel.
package netpoll

import "errors"

// ErrUnsupported is returned by New on platforms without a poller
// implementation. Callers are expected to fall back to a
// goroutine-per-connection design.
var ErrUnsupported = errors.New("netpoll: not supported on this platform")

// ErrAgain is returned by ConnIO.Read when the descriptor has no bytes
// available: the owner should re-arm it and wait for the next readiness
// event instead of retrying.
var ErrAgain = errors.New("netpoll: read would block")
