package netproto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"apcache/internal/aperrs"
	"apcache/internal/query"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatalf("ReadMsg: %v", err)
	}
	return got
}

func TestRoundTripMute(t *testing.T) {
	got := roundTrip(t, &Mute{Seen: 9, Keys: []int64{12, -1}}).(*Mute)
	if got.Seen != 9 || !reflect.DeepEqual(got.Keys, []int64{12, -1}) {
		t.Errorf("got %+v", got)
	}
	in := &ReadMulti{ID: 3, Keys: []int64{1, 2}, Seen: 7, Mute: []int64{5}}
	if rm := roundTrip(t, in).(*ReadMulti); !reflect.DeepEqual(rm, in) {
		t.Errorf("got %+v, want %+v", rm, in)
	}
}

// TestReadMultiTailDoesNotLeak: a reused decode box that last held a mute
// tail must come back empty from a request without one, and Release must
// hand the pool a message with no tail either.
func TestReadMultiTailDoesNotLeak(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &ReadMulti{ID: 1, Keys: []int64{1}, Seen: 4, Mute: []int64{8, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, &ReadMulti{ID: 2, Keys: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	err := NewStreamDecoder().Feed(buf.Bytes(), func(m Message) error {
		rm := m.(*ReadMulti)
		if frames++; frames == 1 && (rm.Seen != 4 || len(rm.Mute) != 2) {
			t.Fatalf("first frame decoded as %+v", rm)
		} else if frames == 2 && (rm.Seen != 0 || len(rm.Mute) != 0) {
			t.Errorf("tail leaked into the next frame: %+v", rm)
		}
		return nil
	})
	if err != nil || frames != 2 {
		t.Fatalf("decoded %d frames, err %v", frames, err)
	}
	m := GetReadMulti()
	m.Seen, m.Mute = 3, append(m.Mute, 1)
	Release(m)
	if m.Seen != 0 || len(m.Mute) != 0 {
		t.Errorf("Release left the tail: %+v", m)
	}
}

func TestMuteTailRejectsMalformed(t *testing.T) {
	frame, err := AppendFrame(nil, &ReadMulti{ID: 1, Keys: []int64{2}, Seen: 1, Mute: []int64{3}})
	if err != nil {
		t.Fatal(err)
	}
	// A tail cut short, and a tail announcing zero keys, are both refused.
	short := append([]byte(nil), frame[:len(frame)-3]...)
	binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
	if _, err := ReadMsg(bytes.NewReader(short)); err == nil {
		t.Error("truncated mute tail decoded")
	}
	empty := append([]byte(nil), frame[:len(frame)-8]...)
	empty[len(empty)-2], empty[len(empty)-1] = 0, 0
	binary.LittleEndian.PutUint32(empty, uint32(len(empty)-4))
	if _, err := ReadMsg(bytes.NewReader(empty)); err == nil {
		t.Error("empty mute tail decoded")
	}
	if _, err := AppendFrame(nil, &ReadMulti{ID: 1, Keys: []int64{2}, Mute: make([]int64, MaxBatchItems+1)}); !errors.Is(err, aperrs.ErrBatchTooLarge) {
		t.Errorf("oversized mute tail: err = %v, want ErrBatchTooLarge match", err)
	}
	if _, err := AppendFrame(nil, &Mute{Keys: make([]int64, MaxBatchItems+1)}); !errors.Is(err, aperrs.ErrBatchTooLarge) {
		t.Errorf("oversized Mute: err = %v, want ErrBatchTooLarge match", err)
	}
}

func TestRoundTripRead(t *testing.T) {
	got := roundTrip(t, &Read{ID: 1, Key: 99}).(*Read)
	if got.ID != 1 || got.Key != 99 {
		t.Errorf("got %+v", got)
	}
}

func TestRoundTripPingPong(t *testing.T) {
	if got := roundTrip(t, &Ping{ID: 5}).(*Ping); got.ID != 5 {
		t.Errorf("ping %+v", got)
	}
	if got := roundTrip(t, &Pong{ID: 6}).(*Pong); got.ID != 6 {
		t.Errorf("pong %+v", got)
	}
}

func TestRoundTripRefresh(t *testing.T) {
	in := &Refresh{
		ID: 42, Key: 3, Kind: KindValueInitiated,
		Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 1,
	}
	got := roundTrip(t, in).(*Refresh)
	if *got != *in {
		t.Errorf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripRefreshInfinities(t *testing.T) {
	in := &Refresh{
		ID: 0, Key: 1, Kind: KindInitial,
		Value: 0, Lo: math.Inf(-1), Hi: math.Inf(1), OriginalWidth: math.Inf(1),
	}
	got := roundTrip(t, in).(*Refresh)
	if !math.IsInf(got.Lo, -1) || !math.IsInf(got.Hi, 1) || !math.IsInf(got.OriginalWidth, 1) {
		t.Errorf("infinities lost: %+v", got)
	}
}

func TestRoundTripError2(t *testing.T) {
	in := &Error2{ID: 4, Code: CodeUnknownKey, Key: -17, Msg: "unknown key -17"}
	got := roundTrip(t, in).(*Error2)
	if *got != *in {
		t.Errorf("got %+v, want %+v", got, in)
	}
	// Empty message and zero code survive too.
	if got := roundTrip(t, &Error2{ID: 5}).(*Error2); got.Code != CodeGeneric || got.Key != 0 || got.Msg != "" {
		t.Errorf("got %+v", got)
	}
	// The reusing decoder decodes it through its box.
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	msg, err := firstFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := msg.(*Error2); !ok || *got != *in {
		t.Errorf("StreamDecoder got %#v, want %+v", msg, in)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&SubscribeMulti{ID: 1, Keys: []int64{10}},
		&Refresh{Key: 10, Kind: KindValueInitiated, Value: 5, Lo: 4, Hi: 6, OriginalWidth: 2},
		&Ping{ID: 2},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.msgType() != msgs[i].msgType() {
			t.Errorf("frame %d type %v, want %v", i, got.msgType(), msgs[i].msgType())
		}
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Errorf("expected EOF after frames, got %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	// Unknown type.
	var buf bytes.Buffer
	frame := make([]byte, 5+8)
	binary.LittleEndian.PutUint32(frame, 9)
	frame[4] = 200
	buf.Write(frame)
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("unknown type accepted")
	}
	// Oversize frame.
	buf.Reset()
	binary.LittleEndian.PutUint32(frame, MaxFrame+1)
	frame[4] = byte(TPing)
	buf.Write(frame)
	if _, err := ReadMsg(&buf); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize frame: %v", err)
	}
	// Zero length.
	buf.Reset()
	binary.LittleEndian.PutUint32(frame, 0)
	buf.Write(frame[:5])
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("zero-length frame accepted")
	}
	// Truncated body.
	buf.Reset()
	binary.LittleEndian.PutUint32(frame, 9)
	frame[4] = byte(TPing)
	buf.Write(frame[:7])
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("truncated body accepted")
	}
}

func TestDecodeTruncatedFields(t *testing.T) {
	// A Read frame whose body is too short for its fields.
	var buf bytes.Buffer
	body := make([]byte, 4) // needs 16
	frame := make([]byte, 5+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)+1))
	frame[4] = byte(TRead)
	copy(frame[5:], body)
	buf.Write(frame)
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("truncated fields accepted")
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	body := make([]byte, 17) // Read wants exactly 16
	frame := make([]byte, 5+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)+1))
	frame[4] = byte(TRead)
	buf.Write(frame)
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("trailing bytes accepted")
	}
}

func TestBadRefreshKindRejected(t *testing.T) {
	m := &Refresh{ID: 1, Key: 1, Kind: 9, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("bad refresh kind accepted")
	}
}

func TestRoundTripHello(t *testing.T) {
	got := roundTrip(t, &Hello{ID: 4, Version: Version}).(*Hello)
	if got.ID != 4 || got.Version != Version {
		t.Errorf("got %+v", got)
	}
	in := &HelloAck{ID: 4, Version: Version}
	if ack := roundTrip(t, in).(*HelloAck); *ack != *in {
		t.Errorf("got %+v, want %+v", ack, in)
	}
}

// TestHandshakeLenientDecode: Hello and HelloAck are the two frames that
// tolerate a longer body. A version-6 peer's carried a 2-byte batch limit
// after the version byte, a version-5 ack an 8-byte cost field after that;
// both must still decode, so the peer is refused by its Version byte rather
// than torn down as garbage.
func TestHandshakeLenientDecode(t *testing.T) {
	v6 := putU16(append(putU64(nil, 3), 6), 128)
	v5 := putU64(putU16(append(putU64(nil, 3), 5), 8), 777)
	for _, c := range []struct {
		body    []byte
		version uint8
	}{{v6, 6}, {v5, 5}, {v6[:9], 6}} {
		h, a := &Hello{}, &HelloAck{}
		if err := h.decode(c.body); err != nil || *h != (Hello{ID: 3, Version: c.version}) {
			t.Errorf("version-%d hello of %d bytes decoded as %+v, err %v", c.version, len(c.body), *h, err)
		}
		if err := a.decode(c.body); err != nil || *a != (HelloAck{ID: 3, Version: c.version}) {
			t.Errorf("version-%d ack of %d bytes decoded as %+v, err %v", c.version, len(c.body), *a, err)
		}
	}
	// Short of the version byte, or version 0, is still refused by both.
	for _, bad := range [][]byte{v6[:8], append(putU64(nil, 3), 0, 0x80, 0)} {
		if err := (&Hello{}).decode(bad); err == nil {
			t.Errorf("hello body %x decoded", bad)
		}
		if err := (&HelloAck{}).decode(bad); err == nil {
			t.Errorf("ack body %x decoded", bad)
		}
	}
}

// TestStrictDecode pins that the frames which lost an optional trailing field
// in version 6 — Refresh.Tag, RefreshBatch.CqrCost — refuse
// the 8 bytes a version-5 peer would have appended instead of silently
// dropping them.
func TestStrictDecode(t *testing.T) {
	item := RefreshItem{Key: 2, Kind: KindValueInitiated, Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 0.5}
	for _, m := range []Message{
		&Refresh{Key: 2, Kind: KindValueInitiated, Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 0.5},
		&RefreshBatch{Items: []RefreshItem{item}},
	} {
		body := putU64(m.encode(nil), 3)
		fresh, _ := NewStreamDecoder().box(m.msgType())
		if err := fresh.decode(body); err == nil {
			t.Errorf("%s with 8 trailing bytes decoded as %+v, want rejection", m.msgType(), fresh)
		}
		if err := fresh.decode(body[:len(body)-8]); err != nil {
			t.Errorf("%s without them rejected: %v", m.msgType(), err)
		}
	}
}

func TestHelloVersionZeroRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Hello{ID: 1, Version: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("hello with version 0 accepted")
	}
}

func TestRoundTripReadMulti(t *testing.T) {
	in := &ReadMulti{ID: 11, Keys: []int64{3, -1, 7}}
	got := roundTrip(t, in).(*ReadMulti)
	if got.ID != 11 || len(got.Keys) != 3 || got.Keys[0] != 3 || got.Keys[1] != -1 || got.Keys[2] != 7 {
		t.Errorf("got %+v", got)
	}
	sub := roundTrip(t, &SubscribeMulti{ID: 12, Keys: []int64{5}}).(*SubscribeMulti)
	if sub.ID != 12 || len(sub.Keys) != 1 || sub.Keys[0] != 5 {
		t.Errorf("got %+v", sub)
	}
}

func TestEmptyMultiRejected(t *testing.T) {
	for _, m := range []Message{
		&ReadMulti{ID: 1},
		&SubscribeMulti{ID: 2},
		&RefreshBatch{ID: 3},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMsg(&buf); err == nil {
			t.Errorf("empty %T accepted", m)
		}
	}
}

func TestRoundTripRefreshBatch(t *testing.T) {
	in := &RefreshBatch{ID: 9, Items: []RefreshItem{
		{Key: 1, Kind: KindInitial, Value: 5, Lo: 4, Hi: 6, OriginalWidth: 2},
		{Key: 2, Kind: KindValueInitiated, Value: -1, Lo: math.Inf(-1), Hi: math.Inf(1), OriginalWidth: math.Inf(1)},
		{Key: 3, Kind: KindQueryInitiated, Value: 7, Lo: 7, Hi: 7, OriginalWidth: 0},
	}}
	got := roundTrip(t, in).(*RefreshBatch)
	if got.ID != 9 || len(got.Items) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range in.Items {
		a, b := got.Items[i], in.Items[i]
		if a.Key != b.Key || a.Kind != b.Kind ||
			math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
			math.Float64bits(a.Lo) != math.Float64bits(b.Lo) ||
			math.Float64bits(a.Hi) != math.Float64bits(b.Hi) ||
			math.Float64bits(a.OriginalWidth) != math.Float64bits(b.OriginalWidth) {
			t.Errorf("item %d: got %+v, want %+v", i, a, b)
		}
	}
}

func TestRefreshBatchBadKindRejected(t *testing.T) {
	in := &RefreshBatch{ID: 1, Items: []RefreshItem{{Key: 1, Kind: 7, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(&buf); err == nil {
		t.Errorf("bad kind in batch item accepted")
	}
}

func TestOversizedBatchCountRejected(t *testing.T) {
	// Hand-build a ReadMulti frame claiming MaxBatchItems+1 keys.
	var body []byte
	body = putU64(body, 1)
	body = putU16(body, uint16(MaxBatchItems+1))
	frame := make([]byte, 5+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)+1))
	frame[4] = byte(TReadMulti)
	copy(frame[5:], body)
	if _, err := ReadMsg(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized readmulti count: %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		TMute: "Mute", TRead: "Read",
		TPing: "Ping", TRefresh: "Refresh", TPong: "Pong", TError2: "Error2",
		THello: "Hello", THelloAck: "HelloAck", TReadMulti: "ReadMulti",
		TSubscribeMulti: "SubscribeMulti", TRefreshBatch: "RefreshBatch",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	// 1 is the retired Subscribe, 2 the retired Unsubscribe, 7 the retired
	// free-text Error frame and 13 the retired Batch: reserved, so they name
	// nothing.
	for _, ty := range []MsgType{1, 2, 7, 13, 99} {
		if got, want := ty.String(), fmt.Sprintf("MsgType(%d)", ty); got != want {
			t.Errorf("unknown type string %q, want %q", got, want)
		}
	}
}

func TestQuickRefreshRoundTrip(t *testing.T) {
	f := func(id uint64, key int64, kindRaw uint8, v, lo, hi, w float64) bool {
		in := &Refresh{
			ID: id, Key: key, Kind: RefreshKind(kindRaw % 3),
			Value: v, Lo: lo, Hi: hi, OriginalWidth: w,
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		got, err := ReadMsg(&buf)
		if err != nil {
			return false
		}
		out, ok := got.(*Refresh)
		if !ok {
			return false
		}
		// NaN != NaN, so compare bit patterns.
		eq := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return out.ID == in.ID && out.Key == in.Key && out.Kind == in.Kind &&
			eq(out.Value, in.Value) && eq(out.Lo, in.Lo) && eq(out.Hi, in.Hi) &&
			eq(out.OriginalWidth, in.OriginalWidth)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickErrorMsgRoundTrip: arbitrary message text survives the error
// frame, whose Msg is the unframed rest of the body.
func TestQuickErrorMsgRoundTrip(t *testing.T) {
	f := func(id uint64, msg string) bool {
		if len(msg) > MaxFrame-32 {
			return true
		}
		in := &Error2{ID: id, Msg: msg}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		got, err := ReadMsg(&buf)
		if err != nil {
			return false
		}
		out := got.(*Error2)
		return out.ID == id && out.Msg == msg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBatchLimitBoundary: exactly MaxBatchItems is the largest legal count
// and must survive a full round trip for every batch-carrying type; one more
// is rejected at the sender (exercised in TestWriteRejectsOversizedBatches).
func TestBatchLimitBoundary(t *testing.T) {
	keys := make([]int64, MaxBatchItems)
	for i := range keys {
		keys[i] = int64(i)
	}
	items := make([]RefreshItem, MaxBatchItems)
	for i := range items {
		items[i] = RefreshItem{Key: int64(i), Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}
	}
	for _, m := range []Message{
		&ReadMulti{ID: 1, Keys: keys},
		&SubscribeMulti{ID: 2, Keys: keys},
		&RefreshBatch{ID: 3, Items: items},
	} {
		got := roundTrip(t, m)
		if n := batchLen(got); n != MaxBatchItems {
			t.Errorf("%s round-tripped %d items, want %d", m.msgType(), n, MaxBatchItems)
		}
	}
}

func TestWriteRejectsOversizedBatches(t *testing.T) {
	var buf bytes.Buffer
	keys := make([]int64, MaxBatchItems+1)
	if err := Write(&buf, &ReadMulti{ID: 1, Keys: keys}); !errors.Is(err, aperrs.ErrBatchTooLarge) {
		t.Errorf("oversized ReadMulti: err = %v, want ErrBatchTooLarge match", err)
	}
	items := make([]RefreshItem, MaxBatchItems+1)
	if err := Write(&buf, &RefreshBatch{ID: 1, Items: items}); !errors.Is(err, aperrs.ErrBatchTooLarge) {
		t.Errorf("oversized RefreshBatch: err = %v, want ErrBatchTooLarge match", err)
	}
}

// TestGoldenFrames pins the encoding of every frame type. The bytes are the
// ones the last negotiated protocol (v4) put on the wire, captured from the
// commit before the version ladder was removed, except where later versions
// changed them: the version byte in Hello/HelloAck, the ReadMulti mute tail
// and the Mute frame (type 18) in place of Unsubscribe (type 2) in version 5,
// HelloAck without its trailing cost field in version 6, Hello/HelloAck
// without the batch limit in version 7, and the version byte again in
// version 8, which retired Subscribe (type 1), and in version 9, whose server
// sends every push as a RefreshBatch. The table also pins the type numbers,
// including the holes at 1, 2, 7 and 13.
func TestGoldenFrames(t *testing.T) {
	item := RefreshItem{Key: 2, Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 0.5}
	pushed := item
	pushed.Kind = KindValueInitiated
	for _, c := range []struct {
		name string
		m    Message
		hex  string
	}{
		{"Read", &Read{ID: 1, Key: 2},
			"110000000301000000000000000200000000000000"},
		{"Ping", &Ping{ID: 1},
			"09000000040100000000000000"},
		{"Refresh", &Refresh{ID: 1, Key: 2, Kind: KindQueryInitiated, Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 0.5},
			"32000000050100000000000000020000000000000002000000000000f83f000000000000f03f0000000000000040000000000000e03f"},
		{"Refresh pushed", &Refresh{Key: 2, Kind: KindValueInitiated, Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 0.5},
			"32000000050000000000000000020000000000000001000000000000f83f000000000000f03f0000000000000040000000000000e03f"},
		{"Pong", &Pong{ID: 1},
			"09000000060100000000000000"},
		{"Hello", &Hello{ID: 1, Version: Version},
			"0a00000008010000000000000009"},
		{"HelloAck", &HelloAck{ID: 1, Version: Version},
			"0a00000009010000000000000009"},
		{"ReadMulti", &ReadMulti{ID: 1, Keys: []int64{2, 3}},
			"1b0000000a0100000000000000020002000000000000000300000000000000"},
		{"ReadMulti with mute tail", &ReadMulti{ID: 1, Keys: []int64{2, 3}, Seen: 5, Mute: []int64{-2}},
			"2d0000000a010000000000000002000200000000000000030000000000000005000000000000000100feffffffffffffff"},
		{"Mute", &Mute{Seen: 5, Keys: []int64{-2, 3}},
			"1b0000001205000000000000000200feffffffffffffff0300000000000000"},
		{"SubscribeMulti", &SubscribeMulti{ID: 1, Keys: []int64{2, 3}},
			"1b0000000b0100000000000000020002000000000000000300000000000000"},
		{"RefreshBatch", &RefreshBatch{ID: 1, Items: []RefreshItem{item}},
			"340000000c01000000000000000100020000000000000000000000000000f83f000000000000f03f0000000000000040000000000000e03f"},
		{"RefreshBatch pushed", &RefreshBatch{Items: []RefreshItem{pushed}},
			"340000000c00000000000000000100020000000000000001000000000000f83f000000000000f03f0000000000000040000000000000e03f"},
		{"Error2", &Error2{ID: 1, Code: CodeUnknownKey, Key: 2, Msg: "no"},
			"150000000e0100000000000000010002000000000000006e6f"},
		{"RegisterQuery", &RegisterQuery{ID: 1, QID: 2, Kind: query.Max, Delta: 0.5, Keys: []int64{3, 4}},
			"2c0000000f0100000000000000020000000000000001000000000000e03f020003000000000000000400000000000000"},
		{"QueryUpdate", &QueryUpdate{ID: 1, QID: 2, Value: 1.5, Lo: 1, Hi: 2},
			"290000001001000000000000000200000000000000000000000000f83f000000000000f03f0000000000000040"},
		{"UnregisterQuery", &UnregisterQuery{ID: 1, QID: 2},
			"110000001101000000000000000200000000000000"},
	} {
		frame, err := AppendFrame(nil, c.m)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := hex.EncodeToString(frame); got != c.hex {
			t.Errorf("%s encodes as\n  %s, want\n  %s", c.name, got, c.hex)
		}
		want, _ := hex.DecodeString(c.hex)
		if _, err := ReadMsg(bytes.NewReader(want)); err != nil {
			t.Errorf("%s: golden bytes rejected: %v", c.name, err)
		}
	}
	// The retired free-text Error frame (type 7), Unsubscribe (type 2),
	// Batch (type 13, the bytes version 6 pinned for Batch{Read, Ping}) and
	// Subscribe (type 1, the bytes version 7 pinned) are refused, not
	// decoded, by ReadMsg and by StreamDecoder.
	for _, retired := range []string{
		"110000000101000000000000000200000000000000",
		"0d0000000701000000000000006e6f7065",
		"11000000020100000000000000feffffffffffffff",
		"210000000d0200031000010000000000000002000000000000000408000300000000000000",
	} {
		old, _ := hex.DecodeString(retired)
		if m, err := ReadMsg(bytes.NewReader(old)); err == nil {
			t.Errorf("retired frame %s decoded as %T, want rejection", retired, m)
		}
		if m, err := firstFrame(old); err == nil {
			t.Errorf("retired frame %s stream-decoded as %T, want rejection", retired, m)
		}
	}
}
