// Package aperrs defines the typed error taxonomy shared by every layer of
// the system — the in-process Store, the networked client and server, and
// the wire protocol. The sentinels here are re-exported by the root apcache
// package; internal packages import this one so the same identities flow
// through errors.Is/As whether a failure happened in-process or was decoded
// off a wire frame.
package aperrs

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Sentinel errors of the public API. Match with errors.Is; the concrete
// error types below carry the structured detail for errors.As.
var (
	// ErrUnknownKey reports an operation on a key the source does not host.
	// Concrete instances are *KeyError values carrying the key.
	ErrUnknownKey = errors.New("apcache: unknown key")
	// ErrClosed reports an operation on a closed client, server, or watch.
	ErrClosed = errors.New("apcache: closed")
	// ErrTimeout reports a call abandoned by the client's default deadline
	// (see client.Config.Timeout). Concrete instances are *TimeoutError values
	// and also match context.DeadlineExceeded, so callers can treat default
	// and per-context deadlines uniformly.
	ErrTimeout = errors.New("apcache: timeout")
	// ErrBatchTooLarge reports a frame whose batch payload exceeds the wire
	// protocol's per-frame item limit.
	ErrBatchTooLarge = errors.New("apcache: batch too large")
	// ErrConnLost reports a call failed by a transport failure: the
	// connection died underneath it, or was still down when the call
	// started. Concrete instances are *ConnLostError values carrying the
	// transport cause. The condition is transient when the client
	// reconnects automatically (see the client's ReconnectPolicy), so
	// callers should errors.Is for this sentinel and retry.
	ErrConnLost = errors.New("apcache: connection lost")
	// ErrHandshakeRefused reports a peer that does not speak this build's
	// wire protocol: the server answered Hello with an error frame, or
	// acked a different version. Raised by the client at Dial time; a
	// reconnecting client counts the attempt as failed and keeps retrying
	// per its ReconnectPolicy.
	ErrHandshakeRefused = errors.New("apcache: handshake refused")
)

// KeyError is the concrete unknown-key failure: it carries the offending
// key and matches ErrUnknownKey under errors.Is.
type KeyError struct {
	Key int
}

func (e *KeyError) Error() string { return fmt.Sprintf("apcache: unknown key %d", e.Key) }

// Is matches the ErrUnknownKey sentinel.
func (e *KeyError) Is(target error) bool { return target == ErrUnknownKey }

// UnknownKey returns the typed unknown-key error for key.
func UnknownKey(key int) error { return &KeyError{Key: key} }

// TimeoutError is the concrete default-deadline failure: it records the
// deadline that expired and matches both ErrTimeout and
// context.DeadlineExceeded under errors.Is.
type TimeoutError struct {
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("apcache: request timed out after %v", e.After)
}

// Is matches ErrTimeout and context.DeadlineExceeded.
func (e *TimeoutError) Is(target error) bool {
	return target == ErrTimeout || target == context.DeadlineExceeded
}

// ConnLostError is the concrete connection-loss failure: it matches
// ErrConnLost under errors.Is and carries the underlying transport error
// (reachable through errors.Unwrap/As) for diagnostics.
type ConnLostError struct {
	Cause error
}

func (e *ConnLostError) Error() string {
	if e.Cause == nil {
		return "apcache: connection lost"
	}
	return "apcache: connection lost: " + e.Cause.Error()
}

// Is matches the ErrConnLost sentinel.
func (e *ConnLostError) Is(target error) bool { return target == ErrConnLost }

// Unwrap exposes the transport cause.
func (e *ConnLostError) Unwrap() error { return e.Cause }

// ConnLost wraps a transport failure into the typed connection-loss error.
func ConnLost(cause error) error { return &ConnLostError{Cause: cause} }
