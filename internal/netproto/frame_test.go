package netproto

import (
	"bytes"
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
		&Read{ID: 2, Key: 3},
		&Refresh{ID: 3, Key: 4, Kind: KindQueryInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2},
		&ReadMulti{ID: 4, Keys: []int64{9, 8, 7}},
		&RefreshBatch{ID: 5, Items: []RefreshItem{{Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}}},
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

	r := GetReadMulti()
	r.ID, r.Keys = 3, append(r.Keys, 4)
	frame, err = AppendFrame(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	Release(r)
	got, err = ReadMsg(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(*ReadMulti); g.ID != 3 || len(g.Keys) != 1 || g.Keys[0] != 4 {
		t.Errorf("round trip %+v", got)
	}
}
