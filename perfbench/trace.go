package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the enclosing span's ID (0 at the root); spans of
// one operation (an injection, a study repeat, a submission) share the
// root span's ID as Op.
type span struct {
	Section string `json:"section"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the traced run writes them out at the
// end. Only the benchmark's own calls are spanned, never the program's
// internals, and a nil *tracer records nothing.
type tracer struct {
	section string
	t0      time.Time
	mu      sync.Mutex
	spans   []span
}

func newTracer(section string) *tracer { return &tracer{section: section, t0: time.Now()} }

// begin opens a span under parent (0 for a new operation root).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{Section: t.section, ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// selfMS sums each span name's self time in milliseconds: its duration
// minus the part covered by its child spans.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
