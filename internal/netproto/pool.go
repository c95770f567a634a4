// Pooling for the wire hot path: scratch buffers for frame encode/decode,
// and reusable ReadMulti boxes for a client's read requests, so a connection
// in steady state sends and receives frames without heap allocation.
//
// No other message is pooled. A server encodes a reply on the goroutine that
// built it and carries a push as a value; a client's read loop completes its
// call in place. Messages emitted by a StreamDecoder are the decoder's own and
// are reclaimed by it on the next frame.

package netproto

import "sync"

// bufPool holds scratch byte slices (boxed to keep Put allocation-free) used
// by Write and ReadMsg.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// maxPooledBuf caps the capacity the buffer pool retains: a buffer grown by
// one exceptional multi-frame burst is dropped to the GC instead of pinning
// its high-water mark in the pool forever.
const maxPooledBuf = 1 << 17

// putBuf truncates before pooling so every buffer handed out has length 0.
func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

var readMultiPool = sync.Pool{New: func() any { return new(ReadMulti) }}

// GetReadMulti returns a *ReadMulti with ID 0 and empty Keys and Mute; both
// slices keep their previous capacity for reuse.
func GetReadMulti() *ReadMulti { return readMultiPool.Get().(*ReadMulti) }

// Release returns m to the ReadMulti pool once it has been written; any other
// message is left to the garbage collector, so a sender may pass whatever it
// sent. The caller must hold the only reference; m must not be used after.
func Release(m Message) {
	if v, ok := m.(*ReadMulti); ok {
		v.ID, v.Seen = 0, 0
		v.Keys, v.Mute = v.Keys[:0], v.Mute[:0]
		readMultiPool.Put(v)
	}
}
