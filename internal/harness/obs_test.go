package harness

import (
	"strings"
	"testing"

	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// obsRun executes one small traced run and returns the collector and
// measurement.
func obsRun(t *testing.T, kind strategy.Kind, pr float64) (*obs.Collector, *Measurement) {
	t.Helper()
	col := obs.NewCollector()
	m, err := Run(RunConfig{
		DB:           workload.Config{NumParents: 400, UseFactor: 5, Seed: 7},
		Strategy:     kind,
		NumRetrieves: 40,
		PrUpdate:     pr,
		NumTop:       20,
		Obs:          col,
	})
	if err != nil {
		t.Fatalf("%s run: %v", kind, err)
	}
	return col, m
}

// TestRootSpansSumToTotalIO is the acceptance check for span I/O
// attribution: for every strategy, the per-op root spans' I/O deltas
// must sum exactly to the harness's own per-sequence total — the figure
// the experiment tables print as avg I/O.
func TestRootSpansSumToTotalIO(t *testing.T) {
	for _, kind := range strategy.AllKindsWithAblations {
		col, m := obsRun(t, kind, 0.3)
		var rootIO int64
		roots := 0
		for _, sp := range col.Spans() {
			if sp.Parent == 0 {
				if sp.Name != "query.retrieve" && sp.Name != "query.update" {
					t.Errorf("%s: unexpected root span %q", kind, sp.Name)
				}
				rootIO += sp.IO
				roots++
			}
		}
		if roots != m.Retrieves+m.Updates {
			t.Errorf("%s: %d root spans for %d ops", kind, roots, m.Retrieves+m.Updates)
		}
		if rootIO != m.TotalIO {
			t.Errorf("%s: root spans sum to %d I/O, measurement says %d", kind, rootIO, m.TotalIO)
		}
	}
}

// TestChildSpansNestUnderRoots checks that operator spans attach to the
// per-op roots and never leak I/O past their parent.
func TestChildSpansNestUnderRoots(t *testing.T) {
	col, _ := obsRun(t, strategy.BFS, 0)
	spans := col.Spans()
	byID := make(map[uint64]obs.SpanEvent, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	sawChild := false
	childIO := make(map[uint64]int64)
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		sawChild = true
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has unknown parent %d", sp.ID, sp.Name, sp.Parent)
		}
		if parent.Parent == 0 { // direct child of a root: count toward it
			childIO[parent.ID] += sp.IO
		}
		if !strings.HasPrefix(sp.Name, "strategy.") && !strings.HasPrefix(sp.Name, "query.") &&
			!strings.HasPrefix(sp.Name, "cache.") {
			t.Errorf("unexpected span name %q", sp.Name)
		}
	}
	if !sawChild {
		t.Fatal("no operator spans recorded under the roots")
	}
	for id, io := range childIO {
		if root := byID[id]; io > root.IO {
			t.Errorf("children of root %d carry %d I/O, root only %d", id, io, root.IO)
		}
	}
}

// TestUninstrumentedRunUnchanged guards the zero-overhead claim at the
// result level: attaching observability must not change measured I/O.
func TestUninstrumentedRunUnchanged(t *testing.T) {
	base := func(sink obs.Sink) *Measurement {
		m, err := Run(RunConfig{
			DB:           workload.Config{NumParents: 400, UseFactor: 5, Seed: 7},
			Strategy:     strategy.BFS,
			NumRetrieves: 24,
			NumTop:       20,
			Obs:          sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := base(nil)
	traced := base(obs.NewCollector())
	if plain.TotalIO != traced.TotalIO || plain.AvgIO != traced.AvgIO {
		t.Errorf("instrumentation changed the measurement: plain %d I/O, traced %d", plain.TotalIO, traced.TotalIO)
	}
}
