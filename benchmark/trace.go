package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one workload
// share the trace id (the workload's name); Parent 0 means a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64    // ns since the trace began
	Count      int64    // calls the span covers: 1 for an op, the batch size for a probe
	Counts     counters // layer counter deltas read at the span's boundaries
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	trace string
	t0    time.Time
	mu    sync.Mutex // serve_2c records from two clients
	spans []span
}

func newTracer(trace string, capacity int) *tracer {
	return &tracer{trace: trace, t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int, count int64, counts *counters) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Count = now, count
	if counts != nil {
		s.Counts = *counts
	}
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover (the union of their intervals, since two
// clients' op spans overlap under one round span).
func (t *tracer) selfTimes() []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			if c.lo > edge {
				edge = c.lo
			}
			covered += c.hi - edge
			edge = c.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// totalNamed sums the duration of every span with the given name
// prefix ("op." for the root spans of ops).
func (t *tracer) totalNamed(prefix string) (ns int64) {
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			ns += s.End - s.Start
		}
	}
	return ns
}

type spanJSON struct {
	Trace   string           `json:"trace"`
	Span    int              `json:"span"`
	Parent  int              `json:"parent,omitempty"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	SelfNs  int64            `json:"self_ns"`
	Count   int64            `json:"count"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// write emits one JSON object per span, in start order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := t.selfTimes()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		js := spanJSON{Trace: t.trace, Span: s.ID, Parent: s.Parent, Name: s.Name,
			StartNs: s.Start, EndNs: s.End, SelfNs: self[s.ID], Count: s.Count}
		for i, v := range s.Counts {
			if v != 0 {
				if js.Counts == nil {
					js.Counts = make(map[string]int64)
				}
				js.Counts[counterNames[i]] = v
			}
		}
		if err := enc.Encode(js); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
