package client

import (
	"context"
	"runtime"
	"strings"
	"time"

	"apcache/internal/netproto"
)

// PendingCalls reports the correlation table's live entry count — the leak
// check used by the cancellation tests.
func (c *Client) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// BackoffDelay exposes ReconnectPolicy's delay computation with the jitter
// draw r pinned, so the backoff tests are deterministic.
func BackoffDelay(p ReconnectPolicy, attempt int, r float64) time.Duration {
	return p.delay(attempt, r)
}

// Held reports how many keys the store holds, without crediting a lookup.
func (c *Client) Held() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.side.Held()
}

// MuteState exposes the eviction protocol's session state: how many keys wait
// to be announced, and how many reply frames the session has installed.
func (c *Client) MuteState() (queued int, seen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.side.Queued(), c.side.Seen()
}

// StartReadExact sends a one-key ReadMulti without awaiting it, splitting
// startCall from await so a test can act between the two. The returned
// function awaits the reply.
func (c *Client) StartReadExact(key int) (await func() error, err error) {
	m := netproto.GetReadMulti()
	m.Keys = append(m.Keys, int64(key))
	id, ch, start, err := c.startCall(context.Background(), nil, m, make([]float64, 1))
	if err != nil {
		return nil, err
	}
	return func() error {
		return c.await(context.Background(), id, ch, start).err
	}, nil
}

// ClientGoroutines returns the stacks of the live goroutines running a
// Client method, so a test can count them and see where they block.
func ClientGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "apcache/internal/client.(*Client).") {
			out = append(out, g)
		}
	}
	return out
}
