package netproto

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// encodeAll appends every message as one frame into a single buffer.
func encodeAll(t *testing.T, msgs ...Message) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, m := range msgs {
		buf, err = AppendFrame(buf, m)
		if err != nil {
			t.Fatalf("AppendFrame(%s): %v", m.msgType(), err)
		}
	}
	return buf
}

func TestAppendFrameMatchesWrite(t *testing.T) {
	msgs := []Message{
		&Subscribe{ID: 1, Key: -2},
		&Read{ID: 2, Key: 3},
		&Refresh{ID: 3, Key: 4, Kind: KindQueryInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&ReadMulti{ID: 4, Keys: []int64{9, 8, 7}},
		&RefreshBatch{ID: 5, Items: []RefreshItem{{Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}}},
		&Batch{Msgs: []Message{&Ping{ID: 6}, &Read{ID: 7, Key: 1}}},
		&Error2{ID: 8, Msg: "boom"},
	}
	for _, m := range msgs {
		var w bytes.Buffer
		if err := Write(&w, m); err != nil {
			t.Fatalf("Write(%s): %v", m.msgType(), err)
		}
		got, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("AppendFrame(%s): %v", m.msgType(), err)
		}
		if !bytes.Equal(got, w.Bytes()) {
			t.Errorf("%s: AppendFrame bytes differ from Write:\n  %x\n  %x", m.msgType(), got, w.Bytes())
		}
	}
}

func TestAppendFramePreservesPrefixOnError(t *testing.T) {
	prefix := encodeAll(t, &Ping{ID: 1})
	withLen := len(prefix)
	out, err := AppendFrame(prefix, &ReadMulti{ID: 2, Keys: make([]int64, MaxBatchItems+1)})
	if err == nil {
		t.Fatal("oversized ReadMulti accepted")
	}
	if len(out) != withLen {
		t.Errorf("dst length %d after failed append, want %d", len(out), withLen)
	}
	if _, err := ReadMsg(bytes.NewReader(out)); err != nil {
		t.Errorf("prefix corrupted by failed append: %v", err)
	}
}

func TestDecoderRoundTripsEveryType(t *testing.T) {
	msgs := []Message{
		&Subscribe{ID: 1, Key: 10},
		&Mute{Seen: 2, Keys: []int64{11}},
		&Read{ID: 3, Key: 12},
		&Ping{ID: 4},
		&Refresh{ID: 5, Key: 13, Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&Pong{ID: 6},
		&Error2{ID: 7, Code: CodeUnknownKey, Key: 3, Msg: "nope"},
		&Hello{ID: 8, Version: Version, MaxBatch: 128},
		&HelloAck{ID: 9, Version: Version, MaxBatch: 64},
		&ReadMulti{ID: 10, Keys: []int64{1, 2, 3}},
		&ReadMulti{ID: 10, Keys: []int64{4}, Seen: 3, Mute: []int64{1, 2}},
		&SubscribeMulti{ID: 11, Keys: []int64{-4}},
		&RefreshBatch{ID: 12, Items: []RefreshItem{{Key: 5, Kind: KindInitial, Value: 9, Lo: 8, Hi: 10, OriginalWidth: 2}}},
		&Batch{Msgs: []Message{&Read{ID: 13, Key: 6}, &Ping{ID: 14}, &Error2{ID: 15, Msg: "x"}}},
	}
	stream := encodeAll(t, msgs...)
	d := NewDecoder(bytes.NewReader(stream))
	for i, want := range msgs {
		got, err := d.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
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
		case *Batch:
			g := got.(*Batch)
			if len(g.Msgs) != len(w.Msgs) {
				t.Fatalf("frame %d: batch of %d, want %d", i, len(g.Msgs), len(w.Msgs))
			}
			for j := range w.Msgs {
				if g.Msgs[j].msgType() != w.Msgs[j].msgType() {
					t.Errorf("frame %d sub %d: type %v, want %v", i, j, g.Msgs[j].msgType(), w.Msgs[j].msgType())
				}
			}
			if r := g.Msgs[0].(*Read); r.ID != 13 || r.Key != 6 {
				t.Errorf("frame %d: inner read %+v", i, r)
			}
		}
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Errorf("expected io.EOF at stream end, got %v", err)
	}
}

// TestDecoderReusesMessages documents the release semantics: a message
// returned by Decode is overwritten by the next Decode of the same type.
func TestDecoderReusesMessages(t *testing.T) {
	stream := encodeAll(t,
		&Refresh{ID: 1, Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&Refresh{ID: 2, Key: 2, Kind: KindValueInitiated, Value: 5, Lo: 4, Hi: 6, OriginalWidth: 2},
	)
	d := NewDecoder(bytes.NewReader(stream))
	first, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	r1 := first.(*Refresh)
	if r1.ID != 1 {
		t.Fatalf("first refresh %+v", r1)
	}
	second, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	r2 := second.(*Refresh)
	if r1 != r2 {
		t.Fatalf("expected the same reused box, got distinct %p %p", r1, r2)
	}
	if r1.ID != 2 || r1.Key != 2 {
		t.Errorf("reused box not overwritten: %+v", r1)
	}
}

// TestDecoderBatchArenaDistinctBoxes: sub-messages within one Batch must be
// distinct even when they share a type.
func TestDecoderBatchArenaDistinctBoxes(t *testing.T) {
	stream := encodeAll(t, &Batch{Msgs: []Message{
		&Read{ID: 1, Key: 10},
		&Read{ID: 2, Key: 20},
		&Read{ID: 3, Key: 30},
	}})
	d := NewDecoder(bytes.NewReader(stream))
	got, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	b := got.(*Batch)
	for i, want := range []int64{10, 20, 30} {
		r := b.Msgs[i].(*Read)
		if r.ID != uint64(i+1) || r.Key != want {
			t.Errorf("sub %d: %+v", i, r)
		}
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"zero length":  {0, 0, 0, 0, byte(TPing)},
		"unknown type": {2, 0, 0, 0, 200, 1},
		"oversize":     {0xff, 0xff, 0xff, 0xff, byte(TPing)},
		"empty batch":  {3, 0, 0, 0, byte(TBatch), 0, 0},
	}
	for name, data := range cases {
		d := NewDecoder(bytes.NewReader(data))
		if _, err := d.Decode(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Nested batch through the arena path.
	inner := encodeAll(t, &Ping{ID: 1})
	_ = inner
	var buf bytes.Buffer
	if err := Write(&buf, &Batch{Msgs: []Message{&Batch{Msgs: []Message{&Ping{ID: 1}}}}}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(&buf)
	if _, err := d.Decode(); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("nested batch via Decoder: %v", err)
	}
}

// TestPooledMessageRoundTrip: Get*/Release cycles hand back usable boxes
// with their slice capacity intact.
func TestPooledMessageRoundTrip(t *testing.T) {
	rb := GetRefreshBatch()
	rb.ID = 9
	rb.Items = append(rb.Items, RefreshItem{Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2})
	frame, err := AppendFrame(nil, rb)
	if err != nil {
		t.Fatal(err)
	}
	Release(rb)
	got, err := ReadMsg(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(*RefreshBatch); g.ID != 9 || len(g.Items) != 1 || g.Items[0].Key != 1 {
		t.Errorf("round trip %+v", got)
	}

	b := GetBatch()
	r := GetRead()
	r.ID, r.Key = 3, 4
	b.Msgs = append(b.Msgs, r)
	frame, err = AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	Release(b) // releases the inner Read too
	got, err = ReadMsg(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(*Batch); len(g.Msgs) != 1 || g.Msgs[0].(*Read).Key != 4 {
		t.Errorf("round trip %+v", got)
	}
}
