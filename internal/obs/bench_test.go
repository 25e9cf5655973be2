package obs

import "testing"

// BenchmarkDisabledSpan measures the instrumentation cost paid by every
// hot path when observability is off. Run with -benchmem: the allocs/op
// column must read 0.
func BenchmarkDisabledSpan(b *testing.B) {
	var ctx Ctx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := ctx.Start("strategy.dfs/probe")
		sp.SetAttr("values", int64(i))
		sp.End()
	}
}

// BenchmarkDisabledSlowLog measures the tail-sampling hook cost when the
// slow log is off — the guard every serve/chaos/query hot path pays.
// Must be 0 allocs/op.
func BenchmarkDisabledSlowLog(b *testing.B) {
	var sl *SlowLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sl.Enabled() {
			b.Fatal("nil slow log enabled")
		}
		sl.Offer(SlowEntry{})
	}
}

// BenchmarkEnabledSpan is the reference point for the enabled path
// (collector sink, live source).
func BenchmarkEnabledSpan(b *testing.B) {
	var cell IO
	tr := NewTracer(func() IO { return cell }, NewCollector())
	ctx := Ctx{Trace: tr}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := ctx.Start("strategy.dfs/probe")
		cell.Reads++
		sp.End()
	}
}
