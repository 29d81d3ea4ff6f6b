package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one staged step
// share a parent; generator spans have none.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newID reserves a span id, for a parent whose children finish first.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.recordID(t.newID(), name, parent, start, end)
}

// recordID stores a finished span under an id from newID.
func (t *tracer) recordID(id int64, name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	t.mu.Unlock()
	return id
}

// count returns how many spans whose name has the given prefix were
// recorded.
func (t *tracer) count(prefix string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// recordCost measures what one record call costs, on a scratch tracer.
func recordCost() time.Duration {
	const n = 20000
	t := newTracer()
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.record("loadgen.query.section", 0, now, now)
	}
	return time.Since(start) / n
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
