package netproto

import (
	"bytes"
	"testing"
)

// FuzzReadMsg feeds arbitrary byte streams to the frame decoder: it must
// never panic, and anything it accepts must re-encode to a frame it accepts
// again (decode/encode/decode fixpoint).
func FuzzReadMsg(f *testing.F) {
	// Seed with valid frames of every type.
	seeds := []Message{
		&Subscribe{ID: 1, Key: 2},
		&Read{ID: 5, Key: 6},
		&Ping{ID: 7},
		&Refresh{ID: 8, Key: 9, Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&Pong{ID: 10},
		&Hello{ID: 12, Version: Version},
		&HelloAck{ID: 13, Version: Version},
		&ReadMulti{ID: 14, Keys: []int64{1, 2, 3}},
		&SubscribeMulti{ID: 15, Keys: []int64{-7, 0}},
		&RefreshBatch{ID: 16, Items: []RefreshItem{
			{Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
			{Key: 2, Kind: KindQueryInitiated, Value: 5, Lo: 5, Hi: 5, OriginalWidth: 0},
		}},
		// Pushes coalesced under ID 0, the writer's hot frame.
		&RefreshBatch{ID: 0, Items: []RefreshItem{
			{Key: 3, Kind: KindValueInitiated, Value: 9, Lo: 8, Hi: 10, OriginalWidth: 2},
		}},
		// Continuous queries.
		&RegisterQuery{ID: 20, QID: 1, Kind: AggSum, Delta: 4, Keys: []int64{1, 2, 3}},
		&RegisterQuery{ID: 21, QID: 2, Kind: AggAvg, Delta: 0.5, Keys: []int64{-9}},
		&QueryUpdate{ID: 22, QID: 1, Value: 6, Lo: 4, Hi: 8},
		&QueryUpdate{ID: 0, QID: 2, Value: -9, Lo: -9, Hi: -9},
		&UnregisterQuery{ID: 23, QID: 1},
		// Mutes: on a ReadMulti's tail, and standalone.
		&ReadMulti{ID: 25, Keys: []int64{1, 2}, Seen: 9, Mute: []int64{3, -4, 5}},
		&ReadMulti{ID: 26, Keys: []int64{1}, Seen: 0, Mute: []int64{1}},
		&Mute{Seen: 10, Keys: []int64{6, 7}},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The retired free-text Error frame (type 7, ID 11, "nope"): a
	// well-formed frame of a type that no longer exists must be rejected.
	f.Add([]byte{0x0d, 0, 0, 0, 0x07, 11, 0, 0, 0, 0, 0, 0, 0, 'n', 'o', 'p', 'e'})
	// The retired Unsubscribe (type 2, ID 3, key 4): rejected likewise.
	f.Add([]byte{0x11, 0, 0, 0, 0x02, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0})
	// A ReadMulti whose mute tail announces zero keys (must be rejected).
	f.Add([]byte{0x1d, 0, 0, 0, byte(TReadMulti), 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// The version-5 tagged Subscribe, tagged Refresh and cost-advertising
	// RefreshBatch: 8 bytes past the body version 6 reads (must be rejected).
	for _, m := range []Message{
		&Subscribe{ID: 24, Key: 5},
		&Refresh{ID: 0, Key: 5, Kind: KindValueInitiated, Value: 3, Lo: 2, Hi: 4, OriginalWidth: 2},
		&RefreshBatch{ID: 0, Items: []RefreshItem{{Key: 3, Kind: KindValueInitiated, Value: 9, Lo: 8, Hi: 10, OriginalWidth: 2}}},
	} {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		frame = putU64(frame, 7)
		frame[0] += 8
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x05})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00})
	// The retired Batch container (type 13) as version 6 framed it, here
	// Batch{Ping{ID: 1}}: u16 count, then type, u16 length and body per
	// sub-message. A former Batch frame must be rejected, not unpacked.
	retiredBatch := []byte{0x0e, 0, 0, 0, 13, 1, 0, byte(TPing), 8, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	if m, err := ReadMsg(bytes.NewReader(retiredBatch)); err == nil {
		f.Fatalf("retired type-13 frame decoded as %T", m)
	}
	f.Add(retiredBatch)
	f.Add([]byte{0x03, 0, 0, 0, 13, 0, 0}) // and the shortest one: a count of 0
	// A version-6 Hello: two bytes (the batch limit) past the body version 7
	// writes. Accepted leniently, so the peer can be refused by its version.
	f.Add([]byte{0x0c, 0, 0, 0, byte(THello), 12, 0, 0, 0, 0, 0, 0, 0, 6, 0x80, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMsg(bytes.NewReader(data))
		// The reusing StreamDecoder must agree with ReadMsg on accept/reject
		// and on the decoded type.
		dmsg, derr := firstFrame(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ReadMsg err=%v but StreamDecoder err=%v", err, derr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if msg.msgType() != dmsg.msgType() {
			t.Fatalf("ReadMsg type %v but StreamDecoder type %v", msg.msgType(), dmsg.msgType())
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		// AppendFrame must produce the identical frame bytes.
		frame, err := AppendFrame(nil, msg)
		if err != nil {
			t.Fatalf("AppendFrame of accepted message failed: %v", err)
		}
		if !bytes.Equal(frame, buf.Bytes()) {
			t.Fatalf("AppendFrame bytes differ from Write")
		}
		if _, err := ReadMsg(&buf); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
	})
}
