// Package netproto defines the wire protocol between approximate-caching
// clients and source servers: length-prefixed binary frames over a reliable
// stream (TCP in cmd/apcache-server and cmd/apcache-client).
//
// The protocol mirrors the paper's refresh model. Clients subscribe to keys
// and receive an initial approximation; the server pushes a Refresh whenever
// an update invalidates a cached interval (value-initiated); a client whose
// query needs more precision sends Read and receives the exact value plus a
// fresh interval (query-initiated). Requests carry an ID echoed by the
// matching response; server-initiated pushes use ID 0.
//
// Evictions cost no frame of their own: a client names the keys it does not
// hold on the tail of a ReadMulti it was sending anyway (Seen, Mute), and the
// server stops pushing them — while still adapting their widths — until the
// client reads or subscribes them again. The standalone Mute frame carries
// the same body for a client with no read traffic to ride on. Seen is what
// makes this safe against replies still in flight; see internal/source.
//
// # Session
//
// There is one protocol version. A connection opens with Hello, which
// carries the version the client speaks; the server answers HelloAck at
// Version, or refuses — a lower offer, or any other frame before Hello —
// with Error2{CodeUnsupported} and closes. After the handshake a request
// names one key (Read, Subscribe, answered by a Refresh) or a key list under
// one request ID (ReadMulti, SubscribeMulti, answered by a single
// RefreshBatch), and RefreshBatch with ID 0 coalesces value-initiated
// pushes. Key lists and batches are never empty; that is rejected at decode
// time.
package netproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"apcache/internal/aperrs"
)

// errTooLarge builds the shared over-limit error for a batch-carrying
// message, wrapping aperrs.ErrBatchTooLarge so both the sending and the
// decoding side surface an errors.Is-able failure.
func errTooLarge(what string, n int) error {
	return fmt.Errorf("netproto: %s of %d items exceeds limit %d: %w", what, n, MaxBatchItems, aperrs.ErrBatchTooLarge)
}

// MsgType identifies a frame's payload.
type MsgType uint8

// Message types. The numbers are wire format and are never renumbered.
const (
	TSubscribe MsgType = iota + 1
	_                  // 2 was Unsubscribe, replaced by Mute in version 5; reserved
	TRead
	TPing
	TRefresh
	TPong
	_ // 7 was the free-text Error frame; reserved so it is never reused
	THello
	THelloAck
	TReadMulti
	TSubscribeMulti
	TRefreshBatch
	_ // 13 was Batch, deleted in version 7; reserved
	TError2
	TRegisterQuery
	TQueryUpdate
	TUnregisterQuery
	TMute
)

// Version is the protocol version both peers must speak. Hello carries the
// client's; the server acks exactly this one and refuses a lower offer.
const Version = 7

// MaxBatchItems caps the entries in a ReadMulti/SubscribeMulti/RefreshBatch/
// Mute (a ReadMulti's Mute tail counted on its own); larger counts are
// rejected at decode time (with MaxFrame this bounds decoder allocations).
const MaxBatchItems = 1024

// String returns the type name.
func (t MsgType) String() string {
	switch t {
	case TSubscribe:
		return "Subscribe"
	case TRead:
		return "Read"
	case TPing:
		return "Ping"
	case TRefresh:
		return "Refresh"
	case TPong:
		return "Pong"
	case THello:
		return "Hello"
	case THelloAck:
		return "HelloAck"
	case TReadMulti:
		return "ReadMulti"
	case TSubscribeMulti:
		return "SubscribeMulti"
	case TRefreshBatch:
		return "RefreshBatch"
	case TError2:
		return "Error2"
	case TRegisterQuery:
		return "RegisterQuery"
	case TQueryUpdate:
		return "QueryUpdate"
	case TUnregisterQuery:
		return "UnregisterQuery"
	case TMute:
		return "Mute"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// RefreshKind is carried inside Refresh frames.
type RefreshKind uint8

// Refresh kinds: initial subscription, value-initiated push, query-initiated
// response.
const (
	KindInitial RefreshKind = iota
	KindValueInitiated
	KindQueryInitiated
)

// Message is implemented by every frame payload.
type Message interface {
	msgType() MsgType
	encode(b []byte) []byte
	decode(b []byte) error
}

// Subscribe registers interest in Key; the server responds with a Refresh
// (KindInitial) echoing ID.
type Subscribe struct {
	ID  uint64
	Key int64
}

// Read requests the exact value of Key (a query-initiated refresh); the
// server responds with a Refresh (KindQueryInitiated) echoing ID.
type Read struct {
	ID  uint64
	Key int64
}

// Ping solicits a Pong; used for liveness tests.
type Ping struct {
	ID uint64
}

// Refresh delivers an approximation (and exact value) for Key.
type Refresh struct {
	ID            uint64 // echoes the triggering request; 0 for pushes
	Key           int64
	Kind          RefreshKind
	Value         float64
	Lo, Hi        float64
	OriginalWidth float64
}

// Pong answers a Ping.
type Pong struct {
	ID uint64
}

// ErrCode classifies a request failure on the wire so the receiving side
// can reconstruct a typed error instead of string-matching the message.
type ErrCode uint16

// Wire error codes. CodeGeneric is the catch-all; the others correspond to
// the apcache error taxonomy.
const (
	CodeGeneric ErrCode = iota
	CodeUnknownKey
	CodeBatchTooLarge
	CodeUnsupported
)

// String returns the code name.
func (c ErrCode) String() string {
	switch c {
	case CodeGeneric:
		return "generic"
	case CodeUnknownKey:
		return "unknown-key"
	case CodeBatchTooLarge:
		return "batch-too-large"
	case CodeUnsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("ErrCode(%d)", uint16(c))
	}
}

// Error2 is the error frame: a structured failure report. Code classifies
// the failure, Key carries the offending key for CodeUnknownKey (0
// otherwise), and Msg is the human-readable detail.
type Error2 struct {
	ID   uint64
	Code ErrCode
	Key  int64
	Msg  string
}

// Hello opens a session: it must be the first frame a client sends. Version
// is the protocol version the client speaks. A server answers with HelloAck
// (accept) or Error2{CodeUnsupported} followed by a close (Version below
// its own).
type Hello struct {
	ID      uint64
	Version uint8
}

// HelloAck accepts a Hello. Version is the server's protocol version — a
// client that reads anything but its own must hang up.
type HelloAck struct {
	ID      uint64
	Version uint8
}

// ReadMulti requests the exact values of Keys under one request ID; the
// server answers with a single RefreshBatch whose items are in Keys order,
// or one Error2 for the whole request.
//
// Seen and Mute piggyback the client's eviction knowledge: Mute lists keys
// the client does not hold and wants no pushes for, Seen is the number of
// reply frames of this session it had fully installed when it checked. The
// server applies them before the reads and answers nothing for them. They
// are a trailing optional field: an empty Mute encodes nothing, and decoders
// accept the tail's absence.
type ReadMulti struct {
	ID   uint64
	Keys []int64
	Seen uint64
	Mute []int64
}

// Mute is a ReadMulti's tail as a frame of its own, for a client whose mute
// queue grows with no read to ride on. Fire-and-forget: no ID, no response.
type Mute struct {
	Seen uint64
	Keys []int64
}

// SubscribeMulti registers interest in Keys under one request ID; the server
// answers with a single RefreshBatch of initial approximations in Keys
// order, or one Error2 for the whole request.
type SubscribeMulti struct {
	ID   uint64
	Keys []int64
}

// RefreshItem is one approximation inside a RefreshBatch: a Refresh without
// the per-message ID (the batch carries one ID for all items).
type RefreshItem struct {
	Key           int64
	Kind          RefreshKind
	Value         float64
	Lo, Hi        float64
	OriginalWidth float64
}

// RefreshBatch delivers several approximations in one frame: the response to
// a ReadMulti/SubscribeMulti (echoing its ID) or, with ID 0, a coalesced run
// of value-initiated pushes.
type RefreshBatch struct {
	ID    uint64
	Items []RefreshItem
}

// AggKind selects the aggregate a continuous query maintains. The values
// mirror internal/workload's AggKind so query plans translate one-to-one.
type AggKind uint8

// Aggregates a RegisterQuery may request.
const (
	AggSum AggKind = iota
	AggMax
	AggMin
	AggAvg
)

// String returns the aggregate name.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// RegisterQuery registers a standing bounded aggregate over Keys with
// precision budget Delta: the server keeps the aggregate current and pushes
// a QueryUpdate — a fresh Delta-wide envelope around it — whenever the
// aggregate may have left the last one sent. QID is a client-chosen nonzero
// handle scoping the query within the connection; the server acks the
// registration with a QueryUpdate echoing ID and carrying the initial
// answer, and stamps QID on every subsequent push.
type RegisterQuery struct {
	ID    uint64
	QID   uint64
	Kind  AggKind
	Delta float64
	Keys  []int64
}

// QueryUpdate delivers the current answer interval [Lo, Hi] of the standing
// query QID. Value is the server's center estimate (the aggregate of the
// cached centers). ID echoes the RegisterQuery on the registration ack and
// is 0 on pushes.
type QueryUpdate struct {
	ID     uint64
	QID    uint64
	Value  float64
	Lo, Hi float64
}

// UnregisterQuery withdraws the standing query QID. Fire-and-forget like
// Mute: the server tears the query down and sends no response.
type UnregisterQuery struct {
	ID  uint64
	QID uint64
}

// MaxFrame bounds accepted frame sizes; real frames are tiny, so anything
// larger indicates a corrupt or hostile stream.
const MaxFrame = 1 << 16

const headerLen = 5 // uint32 length + uint8 type

// batchLen returns the item count of batch-carrying messages (0 for plain
// messages), so frame encoders can reject counts the decoder would refuse.
func batchLen(m Message) int {
	switch b := m.(type) {
	case *ReadMulti:
		return max(len(b.Keys), len(b.Mute))
	case *Mute:
		return len(b.Keys)
	case *SubscribeMulti:
		return len(b.Keys)
	case *RefreshBatch:
		return len(b.Items)
	case *RegisterQuery:
		return len(b.Keys)
	default:
		return 0
	}
}

// checkBatchLimits validates the batch count carried by m. Oversized counts
// are rejected at the sender rather than silently truncating their uint16
// fields: every decoder would refuse them anyway, tearing down the peer's
// connection instead of surfacing the error where it was made.
func checkBatchLimits(m Message) error {
	if n := batchLen(m); n > MaxBatchItems {
		return errTooLarge(m.msgType().String(), n)
	}
	return nil
}

// AppendFrame appends m's complete wire frame — header and body — to dst and
// returns the extended slice. It is the hot-path encoder: a caller that
// reuses dst across frames encodes without allocating, and a run of frames
// appended to one buffer goes to the kernel in a single write. On error dst
// is returned with its original length.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	if err := checkBatchLimits(m); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.msgType()))
	dst = m.encode(dst)
	n := len(dst) - start - headerLen + 1 // body bytes plus the type byte
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("netproto: frame too large (%d bytes)", n)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// Write encodes m as one frame on w: the compatibility wrapper around
// AppendFrame, using a pooled scratch buffer and a single w.Write call.
func Write(w io.Writer, m Message) error {
	bp := getBuf()
	frame, err := AppendFrame((*bp)[:0], m)
	*bp = frame[:0]
	if err != nil {
		putBuf(bp)
		return err
	}
	_, err = w.Write(frame)
	putBuf(bp)
	if err != nil {
		return fmt.Errorf("netproto: write %s: %w", m.msgType(), err)
	}
	return nil
}

// readFrame reads one frame from r, using scratch's storage for both the
// header and the body so the read path allocates nothing when the caller
// reuses the returned slice.
func readFrame(r io.Reader, scratch []byte) (MsgType, []byte, error) {
	scratch = grow(scratch, headerLen)
	if _, err := io.ReadFull(r, scratch); err != nil {
		return 0, scratch[:0], err // io.EOF passes through for clean shutdown
	}
	n := binary.LittleEndian.Uint32(scratch[:4])
	t := MsgType(scratch[4])
	if n == 0 {
		return 0, scratch[:0], fmt.Errorf("netproto: zero-length frame")
	}
	if n > MaxFrame {
		return 0, scratch[:0], fmt.Errorf("netproto: frame of %d bytes exceeds limit", n)
	}
	scratch = grow(scratch, int(n-1))
	if _, err := io.ReadFull(r, scratch); err != nil {
		return 0, scratch, fmt.Errorf("netproto: short frame body: %w", err)
	}
	return t, scratch, nil
}

// grow returns b resized to n bytes, reallocating only when capacity is
// short.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// ReadMsg decodes the next frame from r into a freshly allocated message the
// caller may retain. Connection read loops feed a StreamDecoder instead,
// which reuses message storage across frames.
func ReadMsg(r io.Reader) (Message, error) {
	bp := getBuf()
	defer putBuf(bp)
	t, body, err := readFrame(r, (*bp)[:0])
	*bp = body
	if err != nil {
		return nil, err
	}
	m, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	if err := m.decode(body); err != nil {
		return nil, err
	}
	return m, nil
}

// newMessage returns a zero message of the given type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TSubscribe:
		return &Subscribe{}, nil
	case TRead:
		return &Read{}, nil
	case TPing:
		return &Ping{}, nil
	case TRefresh:
		return &Refresh{}, nil
	case TPong:
		return &Pong{}, nil
	case THello:
		return &Hello{}, nil
	case THelloAck:
		return &HelloAck{}, nil
	case TReadMulti:
		return &ReadMulti{}, nil
	case TSubscribeMulti:
		return &SubscribeMulti{}, nil
	case TRefreshBatch:
		return &RefreshBatch{}, nil
	case TError2:
		return &Error2{}, nil
	case TRegisterQuery:
		return &RegisterQuery{}, nil
	case TQueryUpdate:
		return &QueryUpdate{}, nil
	case TUnregisterQuery:
		return &UnregisterQuery{}, nil
	case TMute:
		return &Mute{}, nil
	default:
		return nil, fmt.Errorf("netproto: unknown message type %d", uint8(t))
	}
}

// --- encoding helpers ---

func putU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func putF64(b []byte, v float64) []byte { return putU64(b, math.Float64bits(v)) }

func putU16(b []byte, v uint16) []byte {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	return append(b, tmp[:]...)
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = fmt.Errorf("netproto: truncated field")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = fmt.Errorf("netproto: truncated field")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 2 {
		r.err = fmt.Errorf("netproto: truncated field")
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[:2])
	r.b = r.b[2:]
	return v
}

func (r *reader) rest() []byte {
	b := r.b
	r.b = nil
	return b
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("netproto: %d trailing bytes", len(r.b))
	}
	return nil
}

// --- per-message implementations ---

func (m *Subscribe) msgType() MsgType { return TSubscribe }
func (m *Subscribe) encode(b []byte) []byte {
	return putU64(putU64(b, m.ID), uint64(m.Key))
}
func (m *Subscribe) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.Key = int64(r.u64())
	return r.done()
}

func (m *Read) msgType() MsgType { return TRead }
func (m *Read) encode(b []byte) []byte {
	return putU64(putU64(b, m.ID), uint64(m.Key))
}
func (m *Read) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.Key = int64(r.u64())
	return r.done()
}

func (m *Ping) msgType() MsgType       { return TPing }
func (m *Ping) encode(b []byte) []byte { return putU64(b, m.ID) }
func (m *Ping) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	return r.done()
}

func (m *Refresh) msgType() MsgType { return TRefresh }
func (m *Refresh) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	b = putU64(b, uint64(m.Key))
	b = append(b, byte(m.Kind))
	b = putF64(b, m.Value)
	b = putF64(b, m.Lo)
	b = putF64(b, m.Hi)
	return putF64(b, m.OriginalWidth)
}
func (m *Refresh) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.Key = int64(r.u64())
	m.Kind = RefreshKind(r.u8())
	m.Value = r.f64()
	m.Lo = r.f64()
	m.Hi = r.f64()
	m.OriginalWidth = r.f64()
	if err := r.done(); err != nil {
		return err
	}
	if m.Kind > KindQueryInitiated {
		return fmt.Errorf("netproto: bad refresh kind %d", m.Kind)
	}
	return nil
}

func (m *Pong) msgType() MsgType       { return TPong }
func (m *Pong) encode(b []byte) []byte { return putU64(b, m.ID) }
func (m *Pong) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	return r.done()
}

func (m *Error2) msgType() MsgType { return TError2 }
func (m *Error2) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	b = putU16(b, uint16(m.Code))
	b = putU64(b, uint64(m.Key))
	return append(b, m.Msg...)
}
func (m *Error2) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.Code = ErrCode(r.u16())
	m.Key = int64(r.u64())
	m.Msg = string(r.rest())
	return r.done()
}

func (m *Hello) msgType() MsgType { return THello }
func (m *Hello) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	return append(b, m.Version)
}
func (m *Hello) decode(b []byte) error {
	var err error
	m.ID, m.Version, err = decodeHandshake(b, "hello")
	return err
}

func (m *HelloAck) msgType() MsgType { return THelloAck }
func (m *HelloAck) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	return append(b, m.Version)
}
func (m *HelloAck) decode(b []byte) error {
	var err error
	m.ID, m.Version, err = decodeHandshake(b, "hello ack")
	return err
}

// decodeHandshake reads the body Hello and HelloAck share, leniently: a
// peer on an older version carries more after the version byte, and its
// frame must decode so it is refused by Version rather than as garbage.
func decodeHandshake(b []byte, what string) (id uint64, version uint8, err error) {
	r := reader{b: b}
	id = r.u64()
	version = r.u8()
	r.rest()
	if err := r.done(); err != nil {
		return 0, 0, err
	}
	if version == 0 {
		return 0, 0, fmt.Errorf("netproto: %s with version 0", what)
	}
	return id, version, nil
}

// encodeKeys/keys implement the shared u64-head + u16-count + keys layout of
// ReadMulti, SubscribeMulti and Mute (head: the request ID, or Seen). Empty
// and oversized key sets are rejected: an empty multi-request has no
// meaningful response frame, an empty mute list nothing to say.
func encodeKeys(b []byte, head uint64, keys []int64) []byte {
	b = putU64(b, head)
	b = putU16(b, uint16(len(keys)))
	for _, k := range keys {
		b = putU64(b, uint64(k))
	}
	return b
}

// keys decodes one head + key list into dst's backing array when its
// capacity suffices, so a reused message decodes without allocating.
func (r *reader) keys(dst []int64, what string) (head uint64, out []int64) {
	head = r.u64()
	n := int(r.u16())
	if r.err == nil {
		if n == 0 {
			r.err = fmt.Errorf("netproto: empty %s", what)
		} else if n > MaxBatchItems {
			r.err = errTooLarge(what, n)
		}
	}
	if r.err != nil {
		return 0, dst[:0]
	}
	dst = dst[:0]
	if cap(dst) < n {
		dst = make([]int64, 0, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, int64(r.u64()))
	}
	return head, dst
}

func (m *ReadMulti) msgType() MsgType { return TReadMulti }
func (m *ReadMulti) encode(b []byte) []byte {
	b = encodeKeys(b, m.ID, m.Keys)
	if len(m.Mute) > 0 {
		b = encodeKeys(b, m.Seen, m.Mute)
	}
	return b
}
func (m *ReadMulti) decode(b []byte) error {
	r := reader{b: b}
	m.ID, m.Keys = r.keys(m.Keys, "ReadMulti")
	// The tail is optional. The explicit reset matters on reused decode
	// boxes: a request without it must not leak the previous one's mutes.
	m.Seen, m.Mute = 0, m.Mute[:0]
	if r.err == nil && len(r.b) > 0 {
		m.Seen, m.Mute = r.keys(m.Mute, "ReadMulti mute tail")
	}
	return r.done()
}

func (m *Mute) msgType() MsgType       { return TMute }
func (m *Mute) encode(b []byte) []byte { return encodeKeys(b, m.Seen, m.Keys) }
func (m *Mute) decode(b []byte) error {
	r := reader{b: b}
	m.Seen, m.Keys = r.keys(m.Keys, "Mute")
	return r.done()
}

func (m *SubscribeMulti) msgType() MsgType       { return TSubscribeMulti }
func (m *SubscribeMulti) encode(b []byte) []byte { return encodeKeys(b, m.ID, m.Keys) }
func (m *SubscribeMulti) decode(b []byte) error {
	r := reader{b: b}
	m.ID, m.Keys = r.keys(m.Keys, "SubscribeMulti")
	return r.done()
}

func (m *RefreshBatch) msgType() MsgType { return TRefreshBatch }
func (m *RefreshBatch) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	b = putU16(b, uint16(len(m.Items)))
	for _, it := range m.Items {
		b = putU64(b, uint64(it.Key))
		b = append(b, byte(it.Kind))
		b = putF64(b, it.Value)
		b = putF64(b, it.Lo)
		b = putF64(b, it.Hi)
		b = putF64(b, it.OriginalWidth)
	}
	return b
}
func (m *RefreshBatch) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	n := int(r.u16())
	if r.err == nil {
		if n == 0 {
			return fmt.Errorf("netproto: empty RefreshBatch")
		}
		if n > MaxBatchItems {
			return errTooLarge("RefreshBatch", n)
		}
	}
	m.Items = m.Items[:0]
	if cap(m.Items) < n {
		m.Items = make([]RefreshItem, 0, n)
	}
	for i := 0; i < n; i++ {
		it := RefreshItem{
			Key:  int64(r.u64()),
			Kind: RefreshKind(r.u8()),
		}
		it.Value = r.f64()
		it.Lo = r.f64()
		it.Hi = r.f64()
		it.OriginalWidth = r.f64()
		if r.err == nil && it.Kind > KindQueryInitiated {
			return fmt.Errorf("netproto: bad refresh kind %d in batch item %d", it.Kind, i)
		}
		m.Items = append(m.Items, it)
	}
	return r.done()
}

// Refresh converts item i into a standalone Refresh carrying the batch's ID.
func (m *RefreshBatch) Refresh(i int) *Refresh {
	it := m.Items[i]
	return &Refresh{
		ID: m.ID, Key: it.Key, Kind: it.Kind,
		Value: it.Value, Lo: it.Lo, Hi: it.Hi, OriginalWidth: it.OriginalWidth,
	}
}

// Item converts a standalone Refresh into a batch item (dropping the ID).
func (m *Refresh) Item() RefreshItem {
	return RefreshItem{
		Key: m.Key, Kind: m.Kind,
		Value: m.Value, Lo: m.Lo, Hi: m.Hi, OriginalWidth: m.OriginalWidth,
	}
}

func (m *RegisterQuery) msgType() MsgType { return TRegisterQuery }
func (m *RegisterQuery) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	b = putU64(b, m.QID)
	b = append(b, byte(m.Kind))
	b = putF64(b, m.Delta)
	b = putU16(b, uint16(len(m.Keys)))
	for _, k := range m.Keys {
		b = putU64(b, uint64(k))
	}
	return b
}
func (m *RegisterQuery) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.QID = r.u64()
	m.Kind = AggKind(r.u8())
	m.Delta = r.f64()
	n := int(r.u16())
	if r.err == nil {
		if n == 0 {
			return fmt.Errorf("netproto: empty RegisterQuery")
		}
		if n > MaxBatchItems {
			return errTooLarge("RegisterQuery", n)
		}
	}
	m.Keys = m.Keys[:0]
	if cap(m.Keys) < n {
		m.Keys = make([]int64, 0, n)
	}
	for i := 0; i < n; i++ {
		m.Keys = append(m.Keys, int64(r.u64()))
	}
	if err := r.done(); err != nil {
		return err
	}
	if m.Kind > AggAvg {
		return fmt.Errorf("netproto: bad aggregate kind %d", m.Kind)
	}
	if m.QID == 0 {
		return fmt.Errorf("netproto: RegisterQuery with QID 0")
	}
	if math.IsNaN(m.Delta) || m.Delta < 0 {
		return fmt.Errorf("netproto: bad query delta %v", m.Delta)
	}
	return nil
}

func (m *QueryUpdate) msgType() MsgType { return TQueryUpdate }
func (m *QueryUpdate) encode(b []byte) []byte {
	b = putU64(b, m.ID)
	b = putU64(b, m.QID)
	b = putF64(b, m.Value)
	b = putF64(b, m.Lo)
	b = putF64(b, m.Hi)
	return b
}
func (m *QueryUpdate) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.QID = r.u64()
	m.Value = r.f64()
	m.Lo = r.f64()
	m.Hi = r.f64()
	return r.done()
}

func (m *UnregisterQuery) msgType() MsgType { return TUnregisterQuery }
func (m *UnregisterQuery) encode(b []byte) []byte {
	return putU64(putU64(b, m.ID), m.QID)
}
func (m *UnregisterQuery) decode(b []byte) error {
	r := reader{b: b}
	m.ID = r.u64()
	m.QID = r.u64()
	return r.done()
}
