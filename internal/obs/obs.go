// Package obs is the observability layer of the engine: span-style
// tracing, pluggable span sinks, and the slow log.
//
// The repo's performance yardstick is counted page I/O, so a span does
// not time anything — it attributes the disk and buffer-pool counter
// deltas of a code region ("where did every I/O get charged?"), the
// per-operator decomposition behind the paper's ParCost/ChildCost
// split. Aggregate counts live where they are made: the layers' Stats
// structs and the harness's Measurement.
//
// Everything is disabled by default and free when disabled: the zero
// Ctx, a nil *Tracer and a nil *SlowLog are all valid no-ops, and the
// disabled paths perform no allocation (asserted by a test). The
// package imports only the standard library so that every storage layer
// (buffer, cache, query, strategy) can depend on it without cycles.
package obs

// IO is a snapshot of the counters a span attributes to itself: disk
// reads/writes plus buffer-pool hits/misses/flushes. Sources are
// closures over a concrete disk + pool pair (see workload.DB.AttachObs),
// keeping this package dependency-free.
type IO struct {
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Flushes int64 `json:"flushes"`
}

// Sub returns the counter deltas a - b.
func (a IO) Sub(b IO) IO {
	return IO{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes,
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Flushes: a.Flushes - b.Flushes,
	}
}

// Ctx is the handle threaded through the stack: a tracer bound to one
// database's counters. The zero Ctx is a valid no-op, so
// un-instrumented code paths cost nothing.
type Ctx struct {
	Trace *Tracer
}

// Start opens a span; no-op (and allocation-free) when tracing is off.
func (c Ctx) Start(name string) Span { return c.Trace.Start(name) }
