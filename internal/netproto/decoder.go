// Decoder: the zero-allocation receive path. One Decoder owns one stream's
// decode state — a reusable body buffer, one box per message type, and a
// typed arena for Batch sub-messages — so a connection's read loop decodes
// frames without allocating in steady state.

package netproto

import "io"

// A Decoder reads frames from one stream, reusing message and buffer
// storage across calls.
//
// Release semantics: every Message returned by Decode — including the
// sub-messages of a returned *Batch — is valid only until the next Decode
// call, which reclaims its storage. A caller that retains a message across
// frames, or hands it to another goroutine, must copy it first. Messages
// returned by Decode are not pool members and must never be passed to
// Release.
//
// A Decoder is not safe for concurrent use; each connection's read loop
// owns exactly one. The allocating ReadMsg remains for callers that want to
// retain what they decode.
type Decoder struct {
	r    io.Reader
	body []byte

	subscribe    Subscribe
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
	batch        Batch
	arena        subArena
}

// NewDecoder returns a Decoder reading from r. Wrap the connection in a
// bufio.Reader first: the Decoder issues two small reads per frame.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads and decodes the next frame. io.EOF passes through unwrapped
// for clean shutdown, like ReadMsg. The returned Message is valid only
// until the next Decode call.
func (d *Decoder) Decode() (Message, error) {
	t, body, err := readFrame(d.r, d.body[:0])
	d.body = body
	if err != nil {
		return nil, err
	}
	if t == TBatch {
		d.arena.reset()
		if err := d.batch.decodeWith(body, d.arena.get); err != nil {
			return nil, err
		}
		return &d.batch, nil
	}
	m, err := d.box(t)
	if err != nil {
		return nil, err
	}
	if err := m.decode(body); err != nil {
		return nil, err
	}
	return m, nil
}

// box returns the Decoder's reusable message of the given type.
func (d *Decoder) box(t MsgType) (Message, error) {
	switch t {
	case TSubscribe:
		return &d.subscribe, nil
	case TRead:
		return &d.read, nil
	case TPing:
		return &d.ping, nil
	case TRefresh:
		return &d.refresh, nil
	case TPong:
		return &d.pong, nil
	case TError2:
		return &d.err2, nil
	case THello:
		return &d.hello, nil
	case THelloAck:
		return &d.helloAck, nil
	case TReadMulti:
		return &d.readMulti, nil
	case TSubscribeMulti:
		return &d.subMulti, nil
	case TRefreshBatch:
		return &d.refreshBatch, nil
	case TRegisterQuery:
		return &d.registerQ, nil
	case TQueryUpdate:
		return &d.queryUpdate, nil
	case TUnregisterQuery:
		return &d.unregisterQ, nil
	case TMute:
		return &d.mute, nil
	default:
		return newMessage(t) // reports the unknown type
	}
}

// subArena hands out sub-message boxes for Batch decoding, reusing typed
// backing arrays across frames. Growing a backing slice leaves previously
// returned pointers valid — they keep pointing into the old array, which
// stays alive exactly as long as they do.
type subArena struct {
	subscribes []Subscribe
	reads      []Read
	pings      []Ping
	refreshes  []Refresh
	pongs      []Pong
}

func (a *subArena) reset() {
	a.subscribes = a.subscribes[:0]
	a.reads = a.reads[:0]
	a.pings = a.pings[:0]
	a.refreshes = a.refreshes[:0]
	a.pongs = a.pongs[:0]
}

// get returns a box for one Batch sub-message. The hot request/response
// types come from the arena; anything else (multi-key, handshake) is not
// legal batch cargo on any code path that matters, so it just allocates.
func (a *subArena) get(t MsgType) (Message, error) {
	switch t {
	case TSubscribe:
		a.subscribes = append(a.subscribes, Subscribe{})
		return &a.subscribes[len(a.subscribes)-1], nil
	case TRead:
		a.reads = append(a.reads, Read{})
		return &a.reads[len(a.reads)-1], nil
	case TPing:
		a.pings = append(a.pings, Ping{})
		return &a.pings[len(a.pings)-1], nil
	case TRefresh:
		a.refreshes = append(a.refreshes, Refresh{})
		return &a.refreshes[len(a.refreshes)-1], nil
	case TPong:
		a.pongs = append(a.pongs, Pong{})
		return &a.pongs[len(a.pongs)-1], nil
	default:
		return newMessage(t)
	}
}
