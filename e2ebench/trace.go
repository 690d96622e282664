package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only in this benchmark's own code, around public calls
// into each layer, and kept in memory until the repetition ends. A span
// with a request id belongs to one HTTP request: the client call, the
// handler wrapper around server.Server, and the Gate and ProfileStore
// wrappers the handler reaches all carry the id the client sent as
// X-Request-Id, and each names the span that caused it as its parent.

// span is one timed interval; times are nanoseconds since the tracer's
// epoch.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	RID     string `json:"rid,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer is the untraced mode: every method
// is a no-op, so instrumented call sites cost nothing when tracing is off.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	// onTimed, when set, is called at the start and the end of the
	// repetition's timed phase; the traced repetition profiles exactly
	// that phase with it.
	onTimed func(start bool)

	mu    sync.Mutex
	spans []span
	// roots maps a request id to the span its later spans hang from: the
	// client call first, then the handler once the request arrives.
	roots map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: make(map[string]int64)}
}

// timed marks the start (true) or end (false) of the timed phase.
func (t *tracer) timed(start bool) {
	if t != nil && t.onTimed != nil {
		t.onTimed(start)
	}
}

// newID reserves a span id, so a span can be named as a parent before it
// ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent int64, name, rid string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, RID: rid,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// enter makes span id the parent of the request's next spans and returns
// the previous parent.
func (t *tracer) enter(rid string, id int64) (prev int64) {
	if t == nil || rid == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev = t.roots[rid]
	t.roots[rid] = id
	return prev
}

// parentOf returns the current parent span of a request.
func (t *tracer) parentOf(rid string) int64 {
	if t == nil || rid == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[rid]
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// ridKey carries a request id in a context: the load generator sets it on
// the client call's context, and the handler wrapper on the server
// request's.
type ridKey struct{}

func withRID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

func ridFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}
