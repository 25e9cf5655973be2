package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// fakeSource returns a Source over a mutable IO cell.
func fakeSource(cell *IO) Source { return func() IO { return *cell } }

func TestTracerAttributesDeltasAndNesting(t *testing.T) {
	var cell IO
	col := NewCollector()
	tr := NewTracer(fakeSource(&cell), col)

	root := tr.Start("query")
	cell.Reads += 2
	child := tr.Start("probe")
	child.SetAttr("values", 7)
	cell.Reads += 3
	cell.Writes += 1
	cell.Hits += 4
	child.End()
	cell.Writes += 1
	root.End()

	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	probe, query := spans[0], spans[1]
	if probe.Name != "probe" || query.Name != "query" {
		t.Fatalf("unexpected order: %+v", spans)
	}
	if probe.Parent != query.ID || query.Parent != 0 {
		t.Errorf("parenting wrong: probe.Parent=%d query.ID=%d query.Parent=%d",
			probe.Parent, query.ID, query.Parent)
	}
	if probe.Reads != 3 || probe.Writes != 1 || probe.IO != 4 || probe.Hits != 4 {
		t.Errorf("probe delta wrong: %+v", probe)
	}
	if query.Reads != 5 || query.Writes != 2 || query.IO != 7 {
		t.Errorf("query delta wrong: %+v", query)
	}
	if len(probe.Attrs) != 1 || probe.Attrs[0] != (Attr{Key: "values", Val: 7}) {
		t.Errorf("attrs wrong: %+v", probe.Attrs)
	}
}

func TestTracerSiblingsShareParent(t *testing.T) {
	var cell IO
	col := NewCollector()
	tr := NewTracer(fakeSource(&cell), col)
	root := tr.Start("root")
	a := tr.Start("a")
	a.End()
	b := tr.Start("b")
	b.End()
	root.End()
	spans := col.Spans()
	if spans[0].Parent != spans[2].ID || spans[1].Parent != spans[2].ID {
		t.Errorf("siblings should share the root parent: %+v", spans)
	}
}

func TestDisabledTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	sp.SetAttr("k", 1)
	sp.End() // must not panic
	if NewTracer(nil, NewCollector()) != nil || NewTracer(fakeSource(&IO{}), nil) != nil {
		t.Error("NewTracer with a nil argument should return the disabled tracer")
	}
}

// TestDisabledPathAllocatesNothing is the hard guarantee behind leaving
// the instrumentation calls in every hot path: with the zero Ctx and a
// nil slow log, span and capture calls must not allocate.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var ctx Ctx
	var sl *SlowLog
	allocs := testing.AllocsPerRun(1000, func() {
		sp := ctx.Start("strategy.dfs/probe")
		sp.SetAttr("values", 42)
		sp.End()
		sl.Offer(SlowEntry{Name: "query.pql"})
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)

	span := SpanEvent{
		ID: 3, Parent: 1, Name: "strategy.bfs/temp",
		Reads: 10, Writes: 2, IO: 12, Hits: 30, Misses: 10, Flushes: 2,
		Attrs: []Attr{{Key: "values", Val: 1000}},
	}
	sink.Span(&span)

	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || !reflect.DeepEqual(spans[0], span) {
		t.Errorf("span did not round-trip: %+v", spans)
	}
}
