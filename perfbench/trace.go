package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced pass's spans in memory until the run ends, and
// owns the metrics registry the program's own counters report into.
type tracer struct {
	reg   *metrics.Registry
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(reg *metrics.Registry) *tracer {
	return &tracer{reg: reg, epoch: time.Now()}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// mk builds a span for the interval [start, end]; the caller keeps it
// locally and hands it to add, so concurrent clients never share a slice.
func (t *tracer) mk(name string, parent, req uint64, start, end time.Time) span {
	return span{
		ID:     t.newID(),
		Parent: parent,
		Req:    req,
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
	}
}

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// record adds the span for [start, now] and returns its id.
func (t *tracer) record(name string, parent, req uint64, start time.Time) uint64 {
	s := t.mk(name, parent, req, start, time.Now())
	t.add(s)
	return s.ID
}

// writeSpans writes a traced invocation's spans as JSON lines after a
// header line carrying the host shape, the seed and both passes'
// end-to-end metrics.
func writeSpans(path string, h host, o *outcome) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	hdr := struct {
		Host     host               `json:"host"`
		Untraced map[string]float64 `json:"untraced"`
		Traced   map[string]float64 `json:"traced"`
	}{h, o.plain.endToEnd(), o.traced.endToEnd()}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	for _, s := range o.traced.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
