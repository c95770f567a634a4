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

// TestAppendRefreshBatch: the envelope-free encoder writes the bytes
// AppendFrame writes for the same batch, behind any prefix, and refuses what
// AppendFrame refuses without touching the prefix.
func TestAppendRefreshBatch(t *testing.T) {
	items := []RefreshItem{{Key: 1, Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}, {Key: 7, Value: -3}}
	prefix := encodeAll(t, &Ping{ID: 1})
	want := encodeAll(t, &Ping{ID: 1}, &RefreshBatch{ID: 6, Items: items})
	got, err := AppendRefreshBatch(prefix, 6, items)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("AppendRefreshBatch = %x, %v; want %x", got, err, want)
	}
	out, err := AppendRefreshBatch(prefix, 6, make([]RefreshItem, MaxBatchItems+1))
	if err == nil || !bytes.Equal(out, prefix) {
		t.Fatalf("oversized batch: %v, %d bytes left of the %d-byte prefix", err, len(out), len(prefix))
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
	if _, err := firstFrame(out); err != nil {
		t.Errorf("prefix corrupted by failed append: %v", err)
	}
}

// TestPooledMessageRoundTrip: a GetReadMulti/Release cycle hands back a
// usable box, and Release leaves any other message alone.
func TestPooledMessageRoundTrip(t *testing.T) {
	rb := &RefreshBatch{ID: 9, Items: []RefreshItem{{Key: 1, Kind: KindInitial, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}}}
	Release(rb)
	if rb.ID != 9 || len(rb.Items) != 1 {
		t.Errorf("Release touched a message it does not pool: %+v", rb)
	}

	r := GetReadMulti()
	r.ID, r.Keys = 3, append(r.Keys, 4)
	frame, err := AppendFrame(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	Release(r)
	got, err := firstFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(*ReadMulti); g.ID != 3 || len(g.Keys) != 1 || g.Keys[0] != 4 {
		t.Errorf("round trip %+v", got)
	}
}
