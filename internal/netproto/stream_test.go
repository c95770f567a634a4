package netproto

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// firstFrame decodes the first frame of wire through a fresh StreamDecoder,
// for tests that want one message or one rejection; the message stays valid
// because nothing feeds that decoder again. Bytes that end before a frame does are
// io.ErrUnexpectedEOF, as a blocking reader would find them.
func firstFrame(wire []byte) (Message, error) {
	var first Message
	stop := errors.New("one frame is enough")
	err := NewStreamDecoder().Feed(wire, func(m Message) error { first = m; return stop })
	switch {
	case first != nil:
		return first, nil
	case err == nil:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, err
}

// streamFrames is a representative frame mix: every hot type.
func streamFrames(t *testing.T) ([]Message, []byte) {
	t.Helper()
	msgs := []Message{
		&Hello{ID: 1, Version: 3},
		&HelloAck{ID: 1, Version: 3},
		&SubscribeMulti{ID: 2, Keys: []int64{7}},
		&RefreshBatch{ID: 2, Items: []RefreshItem{{Key: 7, Kind: KindInitial, Value: 3.5, Lo: 1, Hi: 5, OriginalWidth: 4}}},
		&Refresh{Key: 7, Kind: KindValueInitiated, Value: 3.5, Lo: 1, Hi: 5, OriginalWidth: 4},
		&ReadMulti{ID: 3, Keys: []int64{1, 2, 3}},
		&RefreshBatch{ID: 3, Items: []RefreshItem{
			{Key: 1, Kind: KindQueryInitiated, Value: 1, Lo: 1, Hi: 1},
			{Key: 2, Kind: KindQueryInitiated, Value: 2, Lo: 2, Hi: 2},
		}},
		&RefreshBatch{ID: 0, Items: []RefreshItem{
			{Key: 9, Kind: KindValueInitiated, Value: 4, Lo: 3, Hi: 5, OriginalWidth: 2},
		}},
		&Read{ID: 4, Key: 1},
		&Ping{ID: 5},
		&SubscribeMulti{ID: 6, Keys: []int64{2}},
		&Error2{ID: 7, Code: CodeUnknownKey, Key: 42, Msg: "unknown key 42"},
		&Pong{ID: 5},
	}
	var wire []byte
	var err error
	for _, m := range msgs {
		wire, err = AppendFrame(wire, m)
		if err != nil {
			t.Fatalf("AppendFrame(%T): %v", m, err)
		}
	}
	return msgs, wire
}

// snapshot deep-copies a decoded message out of the decoder's reused boxes
// so it can be compared after the stream moves on.
func snapshot(t *testing.T, m Message) Message {
	t.Helper()
	switch v := m.(type) {
	case *RefreshBatch:
		cp := *v
		cp.Items = append([]RefreshItem(nil), v.Items...)
		return &cp
	case *ReadMulti:
		cp := *v
		cp.Keys = append([]int64(nil), v.Keys...)
		return &cp
	case *SubscribeMulti:
		cp := *v
		cp.Keys = append([]int64(nil), v.Keys...)
		return &cp
	default:
		cp := reflect.New(reflect.TypeOf(m).Elem())
		cp.Elem().Set(reflect.ValueOf(m).Elem())
		return cp.Interface().(Message)
	}
}

// feedChunks drives a StreamDecoder with the wire bytes split into chunks
// of the given size and returns the decoded messages.
func feedChunks(t *testing.T, wire []byte, chunk int) []Message {
	t.Helper()
	sd := NewStreamDecoder()
	var got []Message
	for off := 0; off < len(wire); off += chunk {
		end := off + chunk
		if end > len(wire) {
			end = len(wire)
		}
		// Feed through a scratch copy that is poisoned afterwards, proving
		// the decoder does not retain chunk memory.
		scratch := append([]byte(nil), wire[off:end]...)
		err := sd.Feed(scratch, func(m Message) error {
			got = append(got, snapshot(t, m))
			return nil
		})
		if err != nil {
			t.Fatalf("Feed(chunk %d at %d): %v", chunk, off, err)
		}
		for i := range scratch {
			scratch[i] = 0xAA
		}
	}
	if sd.Pending() != 0 {
		t.Fatalf("chunk %d: %d bytes still pending after full stream", chunk, sd.Pending())
	}
	return got
}

// TestStreamDecoderChunkSizes decodes the same stream at every pathological
// chunking — including one byte at a time, the partial-frame torture case —
// and requires exact parity with what was encoded.
func TestStreamDecoderChunkSizes(t *testing.T) {
	msgs, wire := streamFrames(t)
	for _, chunk := range []int{1, 2, 3, 4, 5, 7, 16, len(wire)} {
		name := fmt.Sprintf("chunk=%d", chunk)
		if chunk == len(wire) {
			name = "chunk=whole" // not the length: the name must survive a frame changing size
		}
		t.Run(name, func(t *testing.T) {
			got := feedChunks(t, wire, chunk)
			if len(got) != len(msgs) {
				t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
			}
			for i := range msgs {
				if !reflect.DeepEqual(got[i], msgs[i]) {
					t.Errorf("message %d: got %#v, want %#v", i, got[i], msgs[i])
				}
			}
		})
	}
}

func TestDecoderRoundTripsEveryType(t *testing.T) {
	msgs := []Message{
		&Mute{Seen: 2, Keys: []int64{11}},
		&Read{ID: 3, Key: 12},
		&Ping{ID: 4},
		&Refresh{ID: 5, Key: 13, Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&Pong{ID: 6},
		&Error2{ID: 7, Code: CodeUnknownKey, Key: 3, Msg: "nope"},
		&Hello{ID: 8, Version: Version},
		&HelloAck{ID: 9, Version: Version},
		&ReadMulti{ID: 10, Keys: []int64{1, 2, 3}},
		&ReadMulti{ID: 10, Keys: []int64{4}, Seen: 3, Mute: []int64{1, 2}},
		&SubscribeMulti{ID: 11, Keys: []int64{-4}},
		&RefreshBatch{ID: 12, Items: []RefreshItem{{Key: 5, Kind: KindInitial, Value: 9, Lo: 8, Hi: 10, OriginalWidth: 2}}},
	}
	sd := NewStreamDecoder()
	i := 0
	err := sd.Feed(encodeAll(t, msgs...), func(got Message) error {
		want := msgs[i]
		if got.msgType() != want.msgType() {
			t.Fatalf("frame %d: type %v, want %v", i, got.msgType(), want.msgType())
		}
		switch w := want.(type) {
		case *Refresh:
			if g := got.(*Refresh); *g != *w {
				t.Errorf("frame %d: %+v, want %+v", i, g, w)
			}
		case *ReadMulti:
			g := got.(*ReadMulti)
			if g.ID != w.ID || len(g.Keys) != len(w.Keys) || g.Keys[0] != w.Keys[0] || g.Seen != w.Seen || len(g.Mute) != len(w.Mute) {
				t.Errorf("frame %d: %+v, want %+v", i, g, w)
			}
		case *Error2:
			if g := got.(*Error2); *g != *w {
				t.Errorf("frame %d: %+v, want %+v", i, g, w)
			}
		}
		i++
		return nil
	})
	if err != nil || i != len(msgs) || sd.Pending() != 0 {
		t.Errorf("decoded %d of %d frames, %d bytes pending, err %v", i, len(msgs), sd.Pending(), err)
	}
}

// TestDecoderReusesMessages documents the release semantics: a message
// emitted by Feed is overwritten by the next frame of the same type.
func TestDecoderReusesMessages(t *testing.T) {
	stream := encodeAll(t,
		&Refresh{ID: 1, Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&Refresh{ID: 2, Key: 2, Kind: KindValueInitiated, Value: 5, Lo: 4, Hi: 6, OriginalWidth: 2},
	)
	var r1, r2 *Refresh
	err := NewStreamDecoder().Feed(stream, func(m Message) error {
		if r1 == nil {
			if r1 = m.(*Refresh); r1.ID != 1 {
				t.Fatalf("first refresh %+v", r1)
			}
		} else {
			r2 = m.(*Refresh)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("expected the same reused box, got distinct %p %p", r1, r2)
	}
	if r1.ID != 2 || r1.Key != 2 {
		t.Errorf("reused box not overwritten: %+v", r1)
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"zero length":  {0, 0, 0, 0, byte(TPing)},
		"unknown type": {2, 0, 0, 0, 200, 1},
		"oversize":     {0xff, 0xff, 0xff, 0xff, byte(TPing)},
		"retired type": {3, 0, 0, 0, 13, 0, 0}, // was an empty Batch
	}
	for name, data := range cases {
		if _, err := firstFrame(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStreamDecoderRejectsBadFrames(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
	}{
		{"zero-length", []byte{0, 0, 0, 0, byte(TPing)}},
		{"oversized", []byte{0xFF, 0xFF, 0xFF, 0x7F, byte(TPing)}},
		{"unknown-type", func() []byte {
			b, _ := AppendFrame(nil, &Ping{ID: 1})
			b[4] = 0xEE
			return b
		}()},
		{"truncated-body", func() []byte {
			b, _ := AppendFrame(nil, &Refresh{ID: 1, Key: 2})
			b[0]-- // shrink the declared length: body decode must fail
			return b[:len(b)-1]
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sd := NewStreamDecoder()
			err := sd.Feed(tc.wire, func(Message) error { return nil })
			if err == nil {
				t.Fatalf("Feed accepted %s frame", tc.name)
			}
		})
	}
}

// TestStreamDecoderEmitError verifies a handler error aborts the feed.
func TestStreamDecoderEmitError(t *testing.T) {
	_, wire := streamFrames(t)
	sd := NewStreamDecoder()
	boom := fmt.Errorf("handler rejected")
	n := 0
	err := sd.Feed(wire, func(Message) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("Feed error = %v, want the handler's", err)
	}
	if n != 2 {
		t.Fatalf("emit ran %d times, want 2", n)
	}
}

// TestStreamDecodeAllocs locks the decoder into its zero-allocation budget:
// steady-state feeding of whole and split frames must not allocate.
func TestStreamDecodeAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	var wire []byte
	var err error
	for _, m := range []Message{
		&Read{ID: 1, Key: 2},
		&Refresh{ID: 1, Key: 2, Kind: KindQueryInitiated, Value: 1, Lo: 0, Hi: 2},
		&RefreshBatch{ID: 0, Items: []RefreshItem{
			{Key: 1, Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2},
			{Key: 2, Kind: KindValueInitiated, Value: 2, Lo: 1, Hi: 3},
		}},
	} {
		wire, err = AppendFrame(wire, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	sd := NewStreamDecoder()
	emit := func(Message) error { return nil }
	// Warm the pending buffer's capacity.
	if err := sd.Feed(wire[:7], emit); err != nil {
		t.Fatal(err)
	}
	if err := sd.Feed(wire[7:], emit); err != nil {
		t.Fatal(err)
	}
	split := len(wire) / 2
	avg := testing.AllocsPerRun(200, func() {
		if err := sd.Feed(wire[:split], emit); err != nil {
			t.Fatal(err)
		}
		if err := sd.Feed(wire[split:], emit); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("steady-state Feed allocates %.1f times per stream, want 0", avg)
	}
}
