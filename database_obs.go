package corep

import (
	"io"

	"corep/internal/obs"
)

// This file is the object API's observability surface: span tracing of
// queries and path retrievals (I/O-attributed, like the harness) and an
// aggregated metrics report. The exported signatures use only standard
// library types; the obs machinery stays internal.

// TraceTo streams one JSON object per completed span to w — the same
// JSON-lines format corepbench -trace emits. Spans cover Query and
// RetrievePath calls plus the cache operations under them, each carrying
// the disk/buffer counter deltas charged while it was open. Pass nil to
// stop tracing.
func (d *Database) TraceTo(w io.Writer) {
	ctx := d.core.Obs
	if w == nil {
		ctx.Trace = nil
		d.traceSink = nil
	} else {
		d.traceSink = obs.NewJSONLSink(w)
		ctx.Trace = obs.NewTracer(d.core.IOSnapshot, d.traceSink)
	}
	d.core.SetObs(ctx)
}

// EnableMetrics starts aggregating counters and I/O histograms across
// subsequent queries. Idempotent; read the result with MetricsReport.
func (d *Database) EnableMetrics() {
	ctx := d.core.Obs
	if ctx.Metrics == nil {
		ctx.Metrics = obs.NewRegistry()
	}
	d.core.SetObs(ctx)
}

// MetricsReport writes a human-readable report of everything aggregated
// since EnableMetrics. No-op when metrics were never enabled.
func (d *Database) MetricsReport(w io.Writer) {
	d.core.Obs.Metrics.WriteText(w)
}
