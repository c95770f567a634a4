// Package wal implements the write-ahead durability layer: an append-only,
// per-shard log of a host's learned state — exact values and adaptive
// interval widths — that a restarted process replays to resume with the
// precision settings it had learned before the crash, instead of re-paying
// the whole adaptation transient from cold-start widths.
//
// # Record format
//
// Every record is length-prefixed and checksummed:
//
//	[len uint32 LE] [crc32c(payload) uint32 LE] [payload]
//	payload := lsn uvarint | op byte | key zigzag varint | val float64 LE
//
// The LSN (log sequence number) is assigned from one counter shared by all
// shards of a Log, so the union of the shard files totally orders a run's
// records even though each shard appends independently. A checkpoint
// (Log.Rewrite) replaces one shard file with its live state under fresh LSNs,
// so the rewritten records outrank whatever another file still says about
// their keys: a crash between two shards' rewrites recovers by per-key
// last-LSN-wins, not by any multi-file atomicity the filesystem cannot give.
//
// Decoding is paranoid by design: a bad length, a checksum mismatch, an
// unknown op, trailing payload bytes, or a semantically invalid field (NaN
// value, negative width) all mark the record — and everything after it — as
// a torn tail. Recovery truncates the file there and proceeds with the valid
// prefix rather than rejecting the log, so a power cut mid-append costs at
// most the unacknowledged suffix.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Op identifies a record kind.
type Op byte

// Record kinds, the whole journal vocabulary: both carry a float64 in Val. Any
// other op byte — the retired legacy ops 3, 4 and 5 included — decodes as a
// torn tail.
const (
	OpValue Op = 1 // exact value written: Key, Val
	OpWidth Op = 2 // learned interval width updated: Key, Val
)

func (o Op) String() string {
	switch o {
	case OpValue:
		return "value"
	case OpWidth:
		return "width"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Record is one logical log entry.
type Record struct {
	// LSN is the record's log sequence number, assigned by Log.Stage.
	LSN uint64
	// Op is the record kind.
	Op Op
	// Key is the subject key.
	Key int64
	// Val carries the exact value (OpValue) or the learned width (OpWidth).
	Val float64
}

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum most storage engines use for log records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPayload bounds a sane record payload; anything longer is corruption
// (the widest record is under 32 bytes).
const maxPayload = 64

// recHeader is the fixed frame prefix: length + checksum.
const recHeader = 8

// appendRecord encodes r onto dst, in place, and returns the extended slice.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recHeader)...)
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = append(dst, byte(r.Op))
	dst = binary.AppendVarint(dst, r.Key)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Val))
	p := dst[start+recHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(p, castagnoli))
	return dst
}

// decodeRecord parses one record frame from the front of data. It returns
// the record and the number of bytes consumed, or an error when the frame is
// torn, checksum-corrupt, or semantically invalid — the caller treats the
// error position as the log's valid end.
func decodeRecord(data []byte) (Record, int, error) {
	if len(data) < recHeader {
		return Record{}, 0, fmt.Errorf("wal: torn header: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if n == 0 || n > maxPayload {
		return Record{}, 0, fmt.Errorf("wal: implausible record length %d", n)
	}
	if len(data) < recHeader+int(n) {
		return Record{}, 0, fmt.Errorf("wal: torn payload: have %d of %d bytes", len(data)-recHeader, n)
	}
	payload := data[recHeader : recHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, fmt.Errorf("wal: checksum mismatch")
	}
	var r Record
	lsn, c := binary.Uvarint(payload)
	if c <= 0 {
		return Record{}, 0, fmt.Errorf("wal: bad lsn varint")
	}
	r.LSN = lsn
	rest := payload[c:]
	if len(rest) == 0 {
		return Record{}, 0, fmt.Errorf("wal: missing op")
	}
	r.Op = Op(rest[0])
	rest = rest[1:]
	key, c := binary.Varint(rest)
	if c <= 0 {
		return Record{}, 0, fmt.Errorf("wal: bad key varint")
	}
	r.Key = key
	rest = rest[c:]
	switch r.Op {
	case OpValue, OpWidth:
		if len(rest) != 8 {
			return Record{}, 0, fmt.Errorf("wal: %s record with %d value bytes", r.Op, len(rest))
		}
		r.Val = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	default:
		return Record{}, 0, fmt.Errorf("wal: unknown op %d", byte(r.Op))
	}
	if err := r.validate(); err != nil {
		return Record{}, 0, err
	}
	return r, recHeader + int(n), nil
}

// validate rejects records whose fields would corrupt a restored host: a
// non-finite value, a non-finite or negative width (a controller would install
// it verbatim). A checksum-valid frame with an invalid field is treated
// exactly like a torn one: replay truncates there and recovers the prefix.
func (r Record) validate() error {
	switch r.Op {
	case OpValue:
		if math.IsNaN(r.Val) || math.IsInf(r.Val, 0) {
			return fmt.Errorf("wal: key %d: invalid value %g", r.Key, r.Val)
		}
	case OpWidth:
		if math.IsNaN(r.Val) || math.IsInf(r.Val, 0) || r.Val < 0 {
			return fmt.Errorf("wal: key %d: invalid width %g", r.Key, r.Val)
		}
	}
	return nil
}
