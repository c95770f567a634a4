package apcache

import (
	"apcache/internal/aperrs"
)

// The typed error taxonomy of API v1. Both layers — the in-process Store and
// the networked Client — fail with errors that match these sentinels under
// errors.Is, and the match survives the TCP boundary: the server encodes a
// structured code on the wire error frame and the client reconstructs the
// same identity, so
//
//	_, err := client.ReadExactCtx(ctx, 42)
//	if errors.Is(err, apcache.ErrUnknownKey) { ... }
//
// behaves identically whether the miss happened in-process or on a remote
// server.
var (
	// ErrUnknownKey reports an operation on a key the source does not
	// host. Use errors.As with *apcache.KeyError to extract the key.
	ErrUnknownKey = aperrs.ErrUnknownKey
	// ErrClosed reports an operation on a closed Client or Watch.
	ErrClosed = aperrs.ErrClosed
	// ErrTimeout reports a call abandoned by the client's default
	// deadline (Client.SetTimeout). It also matches
	// context.DeadlineExceeded, so deadline handling is uniform whether
	// the bound came from a context or the default.
	ErrTimeout = aperrs.ErrTimeout
	// ErrBatchTooLarge reports a frame whose batch payload exceeds the
	// wire protocol's per-frame limit. It is raised locally — at encode
	// time by the sender, at decode time by the receiver; a server cannot
	// reply with it across the wire, because an oversized inbound frame
	// is rejected before its request ID is known.
	ErrBatchTooLarge = aperrs.ErrBatchTooLarge
	// ErrConnLost reports a call failed by a transport failure: the TCP
	// connection died underneath an in-flight call, or was still down
	// when the call started. With ClientConfig.Reconnect enabled the
	// condition is transient — the client redials, replays its
	// subscriptions, and resumes Watch streams — so callers should treat
	// a match as "retry", not "give up":
	//
	//	v, err := client.ReadExactCtx(ctx, key)
	//	if errors.Is(err, apcache.ErrConnLost) { /* back off and retry */ }
	//
	// Use errors.As with *apcache.ConnLostError to reach the underlying
	// transport error.
	ErrConnLost = aperrs.ErrConnLost
	// ErrHandshakeRefused reports a peer that does not speak this build's
	// wire protocol: the server answered the opening Hello with an error
	// frame, or acked a different version. Dial and DialConfig fail with it; a
	// reconnecting client counts the attempt as failed and keeps retrying
	// per its ReconnectPolicy.
	ErrHandshakeRefused = aperrs.ErrHandshakeRefused
)

// KeyError is the concrete unknown-key failure, carrying the offending
// key; it matches ErrUnknownKey under errors.Is.
type KeyError = aperrs.KeyError

// TimeoutError is the concrete default-deadline failure, carrying the
// deadline that expired; it matches ErrTimeout and
// context.DeadlineExceeded under errors.Is.
type TimeoutError = aperrs.TimeoutError

// ConnLostError is the concrete connection-loss failure, wrapping the
// underlying transport error; it matches ErrConnLost under errors.Is.
type ConnLostError = aperrs.ConnLostError
