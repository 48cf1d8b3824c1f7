package main

import (
	"encoding/json"
	"os"
	"time"
)

// A span is one timed call the harness made into a layer. Spans are
// recorded from the benchmark's side only — around Client.Query, around
// psql.ExecCtx on the same snapshot, around each layer's public entry
// point — kept in memory, and written out when the workload ends. Op is
// the traced statement's index: every span of one statement shares it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer collects spans for one workload's traced pass. It is used from
// a single goroutine (the traced pass is single-session by design).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(parent, op int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(parent, op int, name string, f func()) time.Duration {
	id := t.start(parent, op, name)
	f()
	return t.end(id)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	doc, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
