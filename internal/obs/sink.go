package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Sink receives completed spans. Implementations must be safe for
// concurrent use: parallel grid runs share one sink.
type Sink interface {
	Span(ev *SpanEvent)
}

// JSONLSink streams spans as JSON lines, one SpanEvent object per line —
// the machine-readable trace format.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink creates a sink writing one JSON object per line to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Span implements Sink.
func (s *JSONLSink) Span(ev *SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(ev)
}

// Collector buffers spans in memory — the sink tests and harness
// assertions use.
type Collector struct {
	mu    sync.Mutex
	spans []SpanEvent
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Span implements Sink.
func (c *Collector) Span(ev *SpanEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, *ev)
}

// Spans returns a copy of the collected spans.
func (c *Collector) Spans() []SpanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanEvent(nil), c.spans...)
}
