package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// ScanResult is what recovery learns from the log directory.
type ScanResult struct {
	// Records holds every valid data record from every shard file, sorted
	// by LSN — the total order the records were staged in, reconstructed
	// across shards.
	Records []Record
	// MaxLSN is the highest LSN seen; a reopened Log must start above it.
	MaxLSN uint64
	// Truncated counts files whose torn or corrupted tails were cut off in
	// place; the dropped suffix was never acknowledged as durable.
	Truncated int
}

// IsLogName reports whether name is a shard log file (not a temp file).
func IsLogName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}

// ScanDir reads every shard log under dir, truncating torn tails in place,
// and merges the surviving records into LSN order. It reads whatever
// wal-*.log files exist regardless of the shard count that wrote them, so
// recovery works across restarts that change Options.Shards. A missing
// directory is an empty log.
func ScanDir(fsys FS, dir string) (ScanResult, error) {
	if fsys == nil {
		fsys = OSFS
	}
	var res ScanResult
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return res, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	for _, name := range names {
		if !IsLogName(name) {
			continue
		}
		recs, truncated, err := scanFile(fsys, filepath.Join(dir, name))
		if err != nil {
			return res, err
		}
		if truncated {
			res.Truncated++
		}
		res.Records = append(res.Records, recs...)
	}
	sort.SliceStable(res.Records, func(i, j int) bool {
		return res.Records[i].LSN < res.Records[j].LSN
	})
	if n := len(res.Records); n > 0 {
		res.MaxLSN = res.Records[n-1].LSN
	}
	return res, nil
}

// scanFile decodes one shard file's records. The first torn, corrupt, or
// invalid frame ends the file: everything before it is the valid prefix,
// and the file is truncated there so the next append continues from a clean
// boundary instead of interleaving new records with garbage.
func scanFile(fsys FS, path string) ([]Record, bool, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	var recs []Record
	off := 0
	for off < len(data) {
		r, n, err := decodeRecord(data[off:])
		if err != nil {
			if terr := fsys.Truncate(path, int64(off)); terr != nil {
				return nil, false, fmt.Errorf("wal: truncate torn tail of %s at %d: %w", path, off, terr)
			}
			return recs, true, nil
		}
		recs = append(recs, r)
		off += n
	}
	return recs, false, nil
}
