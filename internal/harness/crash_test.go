package harness

import (
	"testing"

	"corep/internal/strategy"
)

func TestCrashChaosSmoke(t *testing.T) {
	bench := quickReport(t, "crash").(*CrashBench)
	for _, v := range bench.Check() {
		t.Errorf("violation: %s", v)
	}
	// The sweep is vacuous unless it committed, replayed, and compared.
	var acked, replayed, rows, midCommits int
	var kept int64
	for _, s := range bench.Strategies {
		for _, r := range s.Runs {
			acked += r.Acked
			replayed += r.ReplayedCommits
			rows += r.RowsCompared
			if r.MidCommit {
				midCommits++
			}
			kept += r.KeptTail
		}
	}
	if acked == 0 {
		t.Fatal("no commits acknowledged across the sweep")
	}
	if replayed < acked {
		t.Fatalf("replayed %d < acked %d with zero violations — bookkeeping broken", replayed, acked)
	}
	if rows == 0 {
		t.Fatal("no rows compared against the crash-free control")
	}
	if midCommits == 0 {
		t.Error("no schedule severed mid-commit — the torn-tail path went unexercised")
	}
}

// TestCrashChaosDeterministic: identical config twice → identical
// summary cells (seeded schedules, counted I/O, no wall-clock inputs).
func TestCrashChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps")
	}
	cfg := crashGrid(gridOf(t, "crash", true))
	cfg.Schedules = 2
	cfg.Strategies = []strategy.Kind{strategy.DFSCACHE}
	a, err := RunCrashChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrashChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Cells(), b.Cells()
	for i := range ca {
		for k, v := range ca[i].Metrics {
			if cb[i].Metrics[k] != v {
				t.Errorf("%s %s: %v vs %v", ca[i].Name, k, v, cb[i].Metrics[k])
			}
		}
	}
}
