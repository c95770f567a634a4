// StreamDecoder: the zero-allocation receive path, and the only reusing frame
// decoder. A connection's read loop — blocking or readiness-driven — pushes
// it arbitrary byte chunks as its reads produce them (a chunk may end in the
// middle of a frame header or body), and it decodes each complete frame in
// place and emits it. One StreamDecoder owns one stream's decode state — one
// reusable box per message type — so decoding allocates nothing in steady
// state, and an idle connection retains no buffer at all: only the bytes of
// an incomplete trailing frame are carried between chunks.

package netproto

import "fmt"

// A StreamDecoder incrementally decodes frames from byte chunks.
//
// Release semantics: every Message passed to emit is valid only during that
// emit call, because the next frame reclaims its storage. A caller that
// retains a message across frames, or hands it to another goroutine, must
// copy it first. Emitted messages are not pool members and must never be
// passed to Release.
//
// A StreamDecoder is not safe for concurrent use; each connection owns
// exactly one, and only one goroutine may Feed it at a time. The allocating
// ReadMsg remains for callers that want to retain what they decode.
type StreamDecoder struct {
	pend []byte // carry-over bytes of an incomplete trailing frame

	read         Read
	ping         Ping
	refresh      Refresh
	pong         Pong
	err2         Error2
	hello        Hello
	helloAck     HelloAck
	readMulti    ReadMulti
	subMulti     SubscribeMulti
	refreshBatch RefreshBatch
	registerQ    RegisterQuery
	queryUpdate  QueryUpdate
	unregisterQ  UnregisterQuery
	mute         Mute
}

// NewStreamDecoder returns an empty StreamDecoder.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// Pending reports how many bytes of an incomplete frame are buffered,
// waiting for the rest to arrive.
func (s *StreamDecoder) Pending() int { return len(s.pend) }

// Feed consumes chunk, invoking emit once per complete frame in stream
// order. Bytes of a trailing incomplete frame are copied into the decoder's
// carry buffer, so the caller may reuse chunk as soon as Feed returns (read
// buffers can be shared across connections). A malformed frame or a non-nil
// error from emit aborts the feed and poisons nothing beyond this stream:
// the caller is expected to tear the connection down.
func (s *StreamDecoder) Feed(chunk []byte, emit func(Message) error) error {
	src := chunk
	if len(s.pend) > 0 {
		s.pend = append(s.pend, chunk...)
		src = s.pend
	}
	off := 0
	for {
		m, n, err := s.next(src[off:])
		if err != nil {
			s.pend = s.pend[:0]
			return err
		}
		if n == 0 {
			break // incomplete frame: wait for more bytes
		}
		off += n
		if err := emit(m); err != nil {
			s.pend = s.pend[:0]
			return err
		}
	}
	rest := src[off:]
	if len(s.pend) > 0 {
		// rest aliases pend's tail; copy handles the forward overlap.
		s.pend = s.pend[:copy(s.pend, rest)]
	} else if len(rest) > 0 {
		s.pend = append(s.pend[:0], rest...)
	}
	if len(s.pend) == 0 && cap(s.pend) > maxPooledBuf {
		// One oversized frame must not pin its high-water mark on an
		// otherwise idle connection.
		s.pend = nil
	}
	return nil
}

// next decodes the first frame of b, returning the message and the bytes
// consumed. n == 0 with a nil error means b holds only a partial frame.
func (s *StreamDecoder) next(b []byte) (m Message, n int, err error) {
	if len(b) < headerLen {
		return nil, 0, nil
	}
	ln := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if ln == 0 {
		return nil, 0, fmt.Errorf("netproto: zero-length frame")
	}
	if ln > MaxFrame {
		return nil, 0, fmt.Errorf("netproto: frame of %d bytes exceeds limit", ln)
	}
	total := headerLen - 1 + ln // 4 length bytes + type byte + body
	if len(b) < total {
		return nil, 0, nil
	}
	t := MsgType(b[4])
	body := b[headerLen:total]
	m, err = s.box(t)
	if err != nil {
		return nil, 0, err
	}
	if err := m.decode(body); err != nil {
		return nil, 0, err
	}
	return m, total, nil
}

// box returns the decoder's reusable message of the given type.
func (s *StreamDecoder) box(t MsgType) (Message, error) {
	switch t {
	case TRead:
		return &s.read, nil
	case TPing:
		return &s.ping, nil
	case TRefresh:
		return &s.refresh, nil
	case TPong:
		return &s.pong, nil
	case TError2:
		return &s.err2, nil
	case THello:
		return &s.hello, nil
	case THelloAck:
		return &s.helloAck, nil
	case TReadMulti:
		return &s.readMulti, nil
	case TSubscribeMulti:
		return &s.subMulti, nil
	case TRefreshBatch:
		return &s.refreshBatch, nil
	case TRegisterQuery:
		return &s.registerQ, nil
	case TQueryUpdate:
		return &s.queryUpdate, nil
	case TUnregisterQuery:
		return &s.unregisterQ, nil
	case TMute:
		return &s.mute, nil
	default:
		return nil, fmt.Errorf("netproto: unknown message type %d", uint8(t))
	}
}
