// Pooling for the wire hot path: scratch buffers for frame encode/decode
// and reusable boxes for the high-volume message types, so a connection in
// steady state sends and receives frames without heap allocation.
//
// Ownership discipline for pooled messages: the code that obtains a message
// from Get* hands ownership down the pipeline with the message (e.g. by
// enqueuing it on a connection's write queue); whoever finally encodes — or
// drops — it calls Release exactly once. Release also accepts messages that
// were heap-allocated rather than pooled, so producers may mix freely.
// Messages emitted by a StreamDecoder are NOT pool members and must never be
// passed to Release: the decoder reclaims them itself on the next frame.

package netproto

import "sync"

// bufPool holds scratch byte slices (boxed to keep Put allocation-free) used
// by Write and ReadMsg, and available to connection writers via GetBuf.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// maxPooledBuf caps the capacity the buffer pool retains: a buffer grown by
// one exceptional multi-frame burst is dropped to the GC instead of pinning
// its high-water mark in the pool forever.
const maxPooledBuf = 1 << 17

// putBuf truncates before pooling so every buffer handed out — including by
// the public GetBuf — honors the length-0 guarantee.
func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// GetBuf returns a pooled scratch buffer of length 0 for assembling frames
// with AppendFrame. PutBuf returns it; the buffer must not be used after.
func GetBuf() *[]byte { return getBuf() }

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b *[]byte) { putBuf(b) }

var (
	refreshPool      = sync.Pool{New: func() any { return new(Refresh) }}
	refreshBatchPool = sync.Pool{New: func() any { return new(RefreshBatch) }}
	readPool         = sync.Pool{New: func() any { return new(Read) }}
	readMultiPool    = sync.Pool{New: func() any { return new(ReadMulti) }}
	queryUpdatePool  = sync.Pool{New: func() any { return new(QueryUpdate) }}
)

// GetRefresh returns a zeroed *Refresh from the message pool.
func GetRefresh() *Refresh { return refreshPool.Get().(*Refresh) }

// GetRefreshBatch returns a *RefreshBatch with ID 0 and empty Items; the
// Items slice keeps its previous capacity for reuse.
func GetRefreshBatch() *RefreshBatch { return refreshBatchPool.Get().(*RefreshBatch) }

// GetRead returns a zeroed *Read from the message pool.
func GetRead() *Read { return readPool.Get().(*Read) }

// GetReadMulti returns a *ReadMulti with ID 0 and empty Keys and Mute; both
// slices keep their previous capacity for reuse.
func GetReadMulti() *ReadMulti { return readMultiPool.Get().(*ReadMulti) }

// GetQueryUpdate returns a zeroed *QueryUpdate from the message pool; the
// standing-query push path emits one per replaced answer envelope.
func GetQueryUpdate() *QueryUpdate { return queryUpdatePool.Get().(*QueryUpdate) }

// Release returns m's storage to the message pools when m is one of the
// pooled high-volume types; other types are left to the garbage collector.
// The caller must hold the only reference; m must not be used after.
func Release(m Message) {
	switch v := m.(type) {
	case *Refresh:
		*v = Refresh{}
		refreshPool.Put(v)
	case *RefreshBatch:
		v.ID = 0
		v.Items = v.Items[:0]
		refreshBatchPool.Put(v)
	case *Read:
		*v = Read{}
		readPool.Put(v)
	case *ReadMulti:
		v.ID, v.Seen = 0, 0
		v.Keys, v.Mute = v.Keys[:0], v.Mute[:0]
		readMultiPool.Put(v)
	case *QueryUpdate:
		*v = QueryUpdate{}
		queryUpdatePool.Put(v)
	}
}
