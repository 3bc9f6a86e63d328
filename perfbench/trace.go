package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one unit of work
// share an ID (a round, or a tenant's interval); Parent names the span that
// caused it.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs measure.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, id, parent string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
			Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// named returns a copy of the spans called name, in completion order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON lines to the run's span file.
func (t *tracer) write(workload string, seed uint64) error {
	if t == nil {
		return nil
	}
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
