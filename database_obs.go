package corep

import (
	"sync"

	"corep/internal/obs"
)

// This file is the object API's tracing surface: span tracing of queries
// and path retrievals, I/O-attributed like the harness, to the stream
// Options.Trace names and the slow log. The database has one tracer,
// made at Open, so span ids are unique for its lifetime.

// spanRouter is the sink of the database's tracer: every span goes to
// the Options.Trace stream, if any, and to the slow log's capture of the
// call being timed, if one is open.
type spanRouter struct {
	mu  sync.Mutex
	out obs.Sink       // the Options.Trace stream; set at Open
	cur *obs.Collector // the timed call's capture
}

// Span implements obs.Sink.
func (r *spanRouter) Span(ev *obs.SpanEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.out != nil {
		r.out.Span(ev)
	}
	if r.cur != nil {
		r.cur.Span(ev)
	}
}

// capture starts collecting spans for one call.
func (r *spanRouter) capture() {
	r.mu.Lock()
	r.cur = obs.NewCollector()
	r.mu.Unlock()
}

// release ends the capture and hands over what it collected.
func (r *spanRouter) release() []obs.SpanEvent {
	r.mu.Lock()
	cur := r.cur
	r.cur = nil
	r.mu.Unlock()
	return cur.Spans()
}
