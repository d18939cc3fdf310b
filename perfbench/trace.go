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

// span is one timed call into a layer's public entry point. Spans of one
// request share req; every replayed layer call names the request's top
// call as its parent.
type span struct {
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// req allocates a request id.
func (t *tracer) req() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(req int64, layer, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{req, layer, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// call times fn as a span of layer under the request's top call.
func (t *tracer) call(req int64, layer, parent string, fn func()) {
	start := time.Now()
	fn()
	t.record(req, layer, parent, start, time.Now())
}

// micros returns the durations of layer's spans in µs.
func (t *tracer) micros(layer string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// self returns, per request that has a layer span, the span's duration
// minus the durations of the listed child layers' spans of that request:
// the layer's self time, in µs.
func (t *tracer) self(layer string, children ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	own := map[int64]float64{}
	for _, s := range t.spans {
		if s.Layer == layer {
			own[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	for _, s := range t.spans {
		if _, ok := own[s.Req]; !ok {
			continue
		}
		for _, c := range children {
			if s.Layer == c {
				own[s.Req] -= float64(s.End-s.Start) / 1e3
			}
		}
	}
	out := make([]float64, 0, len(own))
	for _, v := range own {
		out = append(out, v)
	}
	return out
}

// waterfall prints one line per layer of a chain, top first: the median
// span and the median self time (span minus the next layer's span).
func (t *tracer) waterfall(r *results, title string, chain []string) {
	r.note("waterfall %s (median span / median self time, µs):", title)
	for i, layer := range chain {
		spans := t.micros(layer)
		var self []float64
		if i+1 < len(chain) {
			self = t.self(layer, chain[i+1])
		} else {
			self = spans
		}
		r.note("  %-22s %10.1f %10.1f  (n=%d)", layer, median(spans), median(self), len(spans))
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
