package obs

import (
	"sort"
	"sync"
	"time"
)

// SlowLog is the tail-sampling store: a bounded ring retaining the full
// span tree (with I/O deltas) of the slowest operations seen, so a p99
// outlier can be attributed to disk reads vs. buffer misses vs. cache
// waits vs. fault retries after the fact.
//
// Retention policy: the log keeps the Capacity slowest entries observed
// so far, evicting the fastest retained entry when full. An optional SLO
// threshold marks entries OverSLO and counts violations; because
// retention is rank-by-duration, every violation beyond Capacity is
// still counted (Violations, Dropped) even when its spans are not
// retained — the retained set is always the worst offenders.
//
// A nil *SlowLog is the disabled log: Offer and the accessors are
// allocation-free no-ops, so hot paths guard with one nil check.
// SlowLog is safe for concurrent use.
type SlowLog struct {
	mu         sync.Mutex
	capacity   int
	threshold  time.Duration
	entries    []SlowEntry // unordered; evictMin keeps the slowest
	seq        uint64
	observed   int64
	violations int64
	dropped    int64
}

// NewSlowLog creates a slow log retaining the capacity slowest entries
// (at least one). threshold, when positive, is the SLO bound: entries at
// or over it are flagged OverSLO and counted as violations.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	return &SlowLog{capacity: max(capacity, 1), threshold: threshold}
}

// SlowEntry is one retained operation: identity, timing, outcome, and
// the span tree recorded while it ran. Spans carry the I/O deltas that
// attribute the latency.
type SlowEntry struct {
	Seq      uint64        `json:"seq"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	OverSLO  bool          `json:"over_slo,omitempty"`
	Err      string        `json:"err,omitempty"`
	Spans    []SpanEvent   `json:"spans,omitempty"`
}

// Enabled reports whether the log retains anything (false on nil).
func (l *SlowLog) Enabled() bool { return l != nil }

// Offer records one finished operation and reports whether its spans
// were retained. No-op (false) on a nil log.
func (l *SlowLog) Offer(e SlowEntry) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observed++
	if l.threshold > 0 && e.Duration >= l.threshold {
		e.OverSLO = true
		l.violations++
	}
	l.seq++
	e.Seq = l.seq
	if len(l.entries) < l.capacity {
		l.entries = append(l.entries, e)
		return true
	}
	// Full: the candidate competes with the fastest retained entry.
	min := 0
	for i := 1; i < len(l.entries); i++ {
		if l.entries[i].Duration < l.entries[min].Duration {
			min = i
		}
	}
	if e.Duration <= l.entries[min].Duration {
		l.dropped++
		return false
	}
	l.entries[min] = e
	l.dropped++
	return true
}

// Snapshot returns a copy of the retained entries, slowest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]SlowEntry(nil), l.entries...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// SlowLogStats summarizes the log's bookkeeping counters.
type SlowLogStats struct {
	Observed   int64         `json:"observed"`
	Retained   int           `json:"retained"`
	Violations int64         `json:"violations"`
	Dropped    int64         `json:"dropped"`
	Capacity   int           `json:"capacity"`
	Threshold  time.Duration `json:"threshold_ns"`
}

// Stats returns the counters (zero value on nil).
func (l *SlowLog) Stats() SlowLogStats {
	if l == nil {
		return SlowLogStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return SlowLogStats{
		Observed:   l.observed,
		Retained:   len(l.entries),
		Violations: l.violations,
		Dropped:    l.dropped,
		Capacity:   l.capacity,
		Threshold:  l.threshold,
	}
}
