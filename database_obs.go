package corep

import (
	"io"
	"sync"

	"corep/internal/obs"
)

// This file is the object API's tracing surface: span tracing of queries
// and path retrievals, I/O-attributed like the harness. The exported
// signatures use only standard library types; the obs machinery stays
// internal.

// TraceTo streams one JSON object per completed span to w — the same
// JSON-lines format corepbench -trace emits. Spans cover Query and
// RetrievePath calls plus the cache operations under them, each carrying
// the disk/buffer counter deltas charged while it was open. Pass nil to
// stop tracing.
func (d *Database) TraceTo(w io.Writer) {
	var out obs.Sink
	if w != nil {
		out = obs.NewJSONLSink(w)
	}
	d.spans.mu.Lock()
	d.spans.out = out
	d.spans.mu.Unlock()
	d.installTracer()
}

// installTracer puts the database's one tracer in place while anything
// reads its spans (TraceTo, the slow log) and takes it out otherwise, so
// an untraced database pays nothing. The tracer is made once: its span
// ids never restart.
func (d *Database) installTracer() {
	var ctx obs.Ctx
	if d.spans.out != nil || d.slow != nil {
		if d.tracer == nil {
			d.tracer = obs.NewTracer(d.core.IOSnapshot, &d.spans)
		}
		ctx.Trace = d.tracer
	}
	d.core.SetObs(ctx)
}

// spanRouter is the sink of the database's tracer: every span goes to
// the TraceTo stream, if any, and to the slow log's capture of the call
// being timed, if one is open.
type spanRouter struct {
	mu  sync.Mutex
	out obs.Sink       // the TraceTo stream
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
