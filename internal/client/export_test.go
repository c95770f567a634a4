package client

import "time"

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
	return c.store.Len()
}

// MuteState exposes the eviction protocol's session state: how many keys wait
// to be announced, and how many reply frames the session has installed.
func (c *Client) MuteState() (queued int, seen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.muteq), c.seen
}
