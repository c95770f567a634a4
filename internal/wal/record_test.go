package wal

import (
	"math"
	"strings"
	"testing"
)

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Op: OpValue, Key: 0, Val: 0},
		{LSN: 2, Op: OpValue, Key: -42, Val: -123.456},
		{LSN: 3, Op: OpWidth, Key: 1 << 40, Val: 0.5},
		{LSN: 4, Op: OpWidth, Key: -7, Val: 0},
		{LSN: math.MaxUint64, Op: OpValue, Key: math.MaxInt64, Val: math.MaxFloat64},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := appendRecord(nil, Record{LSN: 5, Op: OpValue, Key: 3, Val: 1.5})
	if _, _, err := decodeRecord(valid); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	// Every single-byte flip must be caught by the checksum or framing.
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		if r, _, err := decodeRecord(mut); err == nil && r == (Record{LSN: 5, Op: OpValue, Key: 3, Val: 1.5}) {
			t.Fatalf("flip at byte %d decoded to the original record", i)
		}
	}
	// Every truncation is a torn frame.
	for n := 0; n < len(valid); n++ {
		if _, _, err := decodeRecord(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Semantically invalid fields are rejected even with a valid checksum.
	for _, r := range []Record{
		{Op: OpValue, Key: 1, Val: math.NaN()},
		{Op: OpValue, Key: 1, Val: math.Inf(1)},
		{Op: OpWidth, Key: 1, Val: -1},
		{Op: OpWidth, Key: 1, Val: math.NaN()},
	} {
		if _, _, err := decodeRecord(appendRecord(nil, r)); err == nil {
			t.Fatalf("invalid record %+v decoded", r)
		}
	}
	// So are unknown ops — the retired legacy ops 3, 4 and 5 among them.
	for _, op := range []Op{3, 4, 5, 200} {
		_, _, err := decodeRecord(appendRecord(nil, Record{Op: op, Key: 1}))
		if err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %d decoded as %v, want an unknown op", op, err)
		}
	}
}
