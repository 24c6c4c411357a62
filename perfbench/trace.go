package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Times are nanoseconds since
// the recorder was created; Parent is 0 for a root span.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a cheap no-op, so the workloads
// run the same code with and without tracing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

// end closes a span and attaches counters captured at its boundary.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	s.Counters = counters
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
