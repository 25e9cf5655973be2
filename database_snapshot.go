package corep

import (
	"time"

	"corep/internal/obs"
)

// This file is the live-introspection surface: a consolidated Snapshot of
// every layer's counters, and the slow-query log (tail sampling of the
// slowest Query/RetrievePath calls with their span trees). Exported
// signatures use only standard library types, same as database_obs.go.

// BufferStats mirrors the buffer pool's counters.
type BufferStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Flushes   int64 `json:"flushes"`
	Pins      int64 `json:"pins"`
	Retries   int64 `json:"retries"`
	Recovered int64 `json:"recovered"`
}

// PrefetchStats mirrors the asynchronous prefetcher's counters.
type PrefetchStats struct {
	Requested int64 `json:"requested"`
	Staged    int64 `json:"staged"`
	Consumed  int64 `json:"consumed"`
	Coalesced int64 `json:"coalesced"`
	Wasted    int64 `json:"wasted"`
	Dropped   int64 `json:"dropped"`
	FetchErrs int64 `json:"fetch_errs"`
}

// SlowLogStats summarizes the slow log's accounting without the entries.
type SlowLogStats struct {
	Enabled    bool          `json:"enabled"`
	Capacity   int           `json:"capacity"`
	Threshold  time.Duration `json:"threshold"`
	Observed   int64         `json:"observed"`
	Retained   int           `json:"retained"`
	Violations int64         `json:"violations"`
	Dropped    int64         `json:"dropped"`
}

// Snapshot is a consolidated view of every layer's counters at one
// moment. Counters are read layer by layer without a global pause, so
// across-layer sums may be torn by in-flight work (a prefetch landing
// between the disk and pool reads, say); each individual layer's struct
// is itself consistent.
type Snapshot struct {
	Disk     IOStats       `json:"disk"`
	Buffer   BufferStats   `json:"buffer"`
	Cache    *CacheStats   `json:"cache,omitempty"` // nil until EnableCache (see database_cache.go)
	Faults   FaultStats    `json:"faults"`
	Prefetch PrefetchStats `json:"prefetch"`
	SlowLog  SlowLogStats  `json:"slow_log"`
	Txn      *TxnStats     `json:"txn,omitempty"`     // nil until EnableVersionedServing (see database_txn.go)
	WAL      *WALStats     `json:"wal,omitempty"`     // nil until EnableWAL (see database_wal.go)
	Reclust  *ReclustStats `json:"reclust,omitempty"` // nil until EnableReclustering (see database_reclust.go)
}

// Snapshot returns the current consolidated counters.
func (d *Database) Snapshot() Snapshot {
	ps := d.core.Pool.Stats()
	pf := d.core.Pool.Prefetcher().Stats()
	sl := d.slow.Stats()
	snap := Snapshot{
		Disk:   d.Stats(),
		Faults: d.FaultStats(),
		Buffer: BufferStats{
			Hits: ps.Hits, Misses: ps.Misses, Flushes: ps.Flushes,
			Pins: ps.Pins, Retries: ps.Retries, Recovered: ps.Recovered,
		},
		Prefetch: PrefetchStats{
			Requested: pf.Requested, Staged: pf.Staged, Consumed: pf.Consumed,
			Coalesced: pf.Coalesced, Wasted: pf.Wasted, Dropped: pf.Dropped,
			FetchErrs: pf.FetchErrs,
		},
		SlowLog: SlowLogStats{
			Enabled: d.slow.Enabled(), Capacity: sl.Capacity, Threshold: sl.Threshold,
			Observed: sl.Observed, Retained: sl.Retained,
			Violations: sl.Violations, Dropped: sl.Dropped,
		},
	}
	if d.core.Cache != nil {
		cs := d.core.Cache.Stats()
		snap.Cache = &cs
	}
	snap.Txn = d.TxnStats()
	snap.WAL = d.WALStats()
	snap.Reclust = d.ReclustStats()
	return snap
}

// SlowSpan is one span of a captured slow query: a named region with the
// disk/buffer counter deltas charged while it was open. Parent is the
// enclosing span's ID (0 for root-level spans).
type SlowSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Reads   int64  `json:"reads"`
	Writes  int64  `json:"writes"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Flushes int64  `json:"flushes,omitempty"`
}

// SlowQuery is one retained slow-log entry: a Query or RetrievePath call
// with its wall-clock duration and full span tree.
type SlowQuery struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	OverSLO  bool          `json:"over_slo,omitempty"`
	Err      string        `json:"err,omitempty"`
	Spans    []SlowSpan    `json:"spans,omitempty"`
}

// TotalIO sums the root-level spans' page reads and writes — the query's
// attributed I/O.
func (q SlowQuery) TotalIO() int64 {
	var total int64
	for _, sp := range q.Spans {
		if sp.Parent == 0 {
			total += sp.Reads + sp.Writes
		}
	}
	return total
}

// EnableSlowLog starts tail sampling: every subsequent Query and
// RetrievePath call is timed and span-traced, and the capacity slowest
// are retained (plus a violation count for calls at or over threshold;
// 0 means no threshold). capacity <= 0 disables capture. Re-enabling
// resets previously captured entries.
func (d *Database) EnableSlowLog(capacity int, threshold time.Duration) {
	if capacity <= 0 {
		d.slow = nil
		return
	}
	d.slow = obs.NewSlowLog(capacity, threshold)
}

// SlowQueries returns the retained entries, slowest first (empty without
// EnableSlowLog).
func (d *Database) SlowQueries() []SlowQuery {
	entries := d.slow.Snapshot()
	out := make([]SlowQuery, len(entries))
	for i, e := range entries {
		q := SlowQuery{
			Name: e.Name, Start: e.Start, Duration: e.Duration,
			OverSLO: e.OverSLO, Err: e.Err,
		}
		for _, sp := range e.Spans {
			q.Spans = append(q.Spans, SlowSpan{
				ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
				Reads: sp.Reads, Writes: sp.Writes,
				Hits: sp.Hits, Misses: sp.Misses, Flushes: sp.Flushes,
			})
		}
		out[i] = q
	}
	return out
}

// noSlowDone is beginSlow's no-op completion when capture is off.
var noSlowDone = func(error) {}

// beginSlow arms span capture for one query when the slow log is on: the
// tracer is swapped for one that also feeds a private collector (tracing
// via TraceTo, if active, still sees every span through the tee), and
// the returned func restores the previous tracer and offers the entry.
// The object API is single-threaded per database, same contract the
// tracer itself carries, so the swap is safe.
func (d *Database) beginSlow(name string) func(error) {
	if d.slow == nil {
		return noSlowDone
	}
	col := obs.NewCollector()
	var sink obs.Sink = col
	if d.traceSink != nil {
		sink = obs.Tee{col, d.traceSink}
	}
	prev := d.core.Obs
	ctx := prev
	ctx.Trace = obs.NewTracer(d.core.IOSnapshot, sink)
	d.core.SetObs(ctx)
	start := time.Now()
	return func(err error) {
		d.core.SetObs(prev)
		e := obs.SlowEntry{
			Name: name, Start: start, Duration: time.Since(start),
			Spans: col.Spans(),
		}
		if err != nil {
			e.Err = err.Error()
		}
		d.slow.Offer(e)
	}
}
