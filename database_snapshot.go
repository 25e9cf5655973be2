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
// across-layer sums may be torn by in-flight work (a concurrent reader's
// page landing between the disk and pool reads, say); each individual
// layer's struct is itself consistent.
type Snapshot struct {
	Disk    IOStats       `json:"disk"`
	Buffer  BufferStats   `json:"buffer"`
	Cache   *CacheStats   `json:"cache,omitempty"` // nil without Options.CacheUnits (see database_cache.go)
	Faults  FaultStats    `json:"faults"`
	SlowLog SlowLogStats  `json:"slow_log"`
	Txn     *TxnStats     `json:"txn,omitempty"`     // nil without Options.Versioned (see database_txn.go)
	WAL     *WALStats     `json:"wal,omitempty"`     // nil until EnableWAL (see database_wal.go)
	Reclust *ReclustStats `json:"reclust,omitempty"` // nil without Options.Reclustering or restored placements (see database_reclust.go)
}

// Snapshot returns the current consolidated counters.
func (d *Database) Snapshot() Snapshot {
	ds := d.core.Disk.Stats()
	ps := d.core.Pool.Stats()
	sl := d.slow.Stats()
	snap := Snapshot{
		Disk:   IOStats{Reads: ds.Reads, Writes: ds.Writes},
		Faults: d.faultStats(),
		Buffer: BufferStats{
			Hits: ps.Hits, Misses: ps.Misses, Flushes: ps.Flushes,
			Pins: ps.Pins, Retries: ps.Retries, Recovered: ps.Recovered,
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
	snap.Txn = d.txnStats()
	snap.WAL = d.walStats()
	snap.Reclust = d.core.ReclustStats()
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

// SlowQueries returns the retained entries, slowest first (empty without
// Options.SlowLogCapacity).
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

// beginSlow times one query when the slow log is on and collects the
// spans the database's tracer emits meanwhile; the returned func offers
// the entry. The object API is single-threaded per database, the same
// contract the tracer itself carries.
func (d *Database) beginSlow(name string) func(error) {
	if d.slow == nil {
		return noSlowDone
	}
	d.spans.capture()
	start := time.Now()
	return func(err error) {
		e := obs.SlowEntry{
			Name: name, Start: start, Duration: time.Since(start),
			Spans: d.spans.release(),
		}
		if err != nil {
			e.Err = err.Error()
		}
		d.slow.Offer(e)
	}
}
