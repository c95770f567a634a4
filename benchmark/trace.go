package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// span is one timed call across a layer boundary, taken from the
// benchmark's own files around the public function it calls. Spans inside
// the program are a later change.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"` // spans of one request share it
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so call sites need no "if traced".
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add appends a worker's locally buffered spans.
func (t *tracer) add(spans []span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// open records a span that encloses others (a workload, a phase) and
// returns its id for use as their parent.
func (t *tracer) open(name string, start, end int64, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	id := t.id()
	t.add([]span{{Name: name, Start: start, End: end, ID: id, Parent: parent}})
	return id
}

// spanBuf is one goroutine's private span buffer.
type spanBuf struct {
	t      *tracer
	parent uint64
	spans  []span
}

func (t *tracer) buf(parent uint64, capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	return &spanBuf{t: t, parent: parent, spans: make([]span, 0, capacity)}
}

func (b *spanBuf) record(name string, start, end int64, req uint64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{Name: name, Start: start, End: end, ID: b.t.id(), Parent: b.parent, Req: req})
}

func (b *spanBuf) flush() {
	if b != nil {
		b.t.add(b.spans)
		b.spans = b.spans[:0]
	}
}

func (b *spanBuf) parentID() uint64 {
	if b == nil {
		return 0
	}
	return b.parent
}

// durations returns the durations, in the given unit of nanoseconds, of
// every span called name.
func (t *tracer) durations(name string, unit float64) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/unit)
		}
	}
	return out
}

// write leaves the span file of a traced run at path.
func (t *tracer) write(path, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
