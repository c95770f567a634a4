package netproto

import (
	"testing"
)

// TestWireAllocs locks in the steady-state allocation budget of the wire
// codec: encoding into a reused buffer and decoding through a StreamDecoder
// are both allocation-free once warm. CI runs this as its allocation-regression
// gate (`go test -run TestWireAllocs ./internal/...`).
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}

	refresh := &Refresh{ID: 1, Key: 2, Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}
	items := make([]RefreshItem, 64)
	for i := range items {
		items[i] = RefreshItem{Key: int64(i), Kind: KindValueInitiated, Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2}
	}
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(i)
	}
	msgs := []Message{
		refresh,
		&RefreshBatch{ID: 0, Items: items},
		&Read{ID: 3, Key: 4},
		&ReadMulti{ID: 5, Keys: keys},
	}

	// Encode: AppendFrame into a caller-owned buffer allocates nothing.
	buf := make([]byte, 0, 1<<15)
	for _, m := range msgs {
		m := m
		if n := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = AppendFrame(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AppendFrame(%s): %v allocs/op, want 0", m.msgType(), n)
		}
	}

	// Decode: a StreamDecoder replaying a warm stream allocates nothing.
	var stream []byte
	var err error
	for _, m := range msgs {
		stream, err = AppendFrame(stream, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	d := NewStreamDecoder()
	emit := func(Message) error { return nil }
	decodeAll := func() {
		if err := d.Feed(stream, emit); err != nil {
			t.Fatal(err)
		}
	}
	decodeAll() // warm the boxes
	if n := testing.AllocsPerRun(200, decodeAll); n != 0 {
		t.Errorf("StreamDecoder.Feed: %v allocs/op over %d frames, want 0", n, len(msgs))
	}

	// Pooled message round trips are allocation-free once the pool is warm.
	if n := testing.AllocsPerRun(200, func() {
		rm := GetReadMulti()
		rm.Keys = append(rm.Keys[:0], keys...)
		buf, err = AppendFrame(buf[:0], rm)
		if err != nil {
			t.Fatal(err)
		}
		Release(rm)
	}); n != 0 {
		t.Errorf("pooled ReadMulti cycle: %v allocs/op, want 0", n)
	}
}
