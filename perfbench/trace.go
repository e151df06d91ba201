package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own trace: spans recorded from this package around
// each call into a layer of the program (a Runner.Run, an HTTP request,
// a kernel probe), never inside the program. Spans stay in memory and
// are written out once, when the benchmark ends. A nil *recorder and a
// nil *span no-op, so the untraced run pays nothing.

// spanRec is one finished span. Spans of one session or request share
// Trace; Parent is -1 for a top-level span.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []spanRec
	traces int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrace returns a fresh trace id for one session or request.
func (r *recorder) newTrace(prefix string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return fmt.Sprintf("%s:%d", prefix, r.traces)
}

type span struct {
	r     *recorder
	id    int
	trace string
}

// start opens a span under parent (nil for top level); trace names the
// session or request the span belongs to and is inherited when empty.
func (r *recorder) start(parent *span, trace, name string) *span {
	if r == nil {
		return nil
	}
	pid := -1
	if parent != nil {
		pid = parent.id
		if trace == "" {
			trace = parent.trace
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{ID: id, Parent: pid, Trace: trace, Name: name, StartNS: int64(time.Since(r.epoch)), EndNS: -1})
	return &span{r: r, id: id, trace: trace}
}

// child opens a span under s in the same trace.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.r.start(s, "", name)
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.spans[s.id].EndNS = int64(time.Since(s.r.epoch))
}

// write saves the spans, with the machine tag, as one JSON document.
func (r *recorder) write(path string, tag machineTag) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Machine machineTag `json:"machine"`
		Spans   []spanRec  `json:"spans"`
	}{tag, r.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
