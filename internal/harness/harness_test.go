package harness

import (
	"strings"
	"testing"

	"corep/internal/strategy"
	"corep/internal/workload"
)

// tinyScale keeps experiment tests fast.
var tinyScale = Scale{NumParents: 300, MaxRetrieves: 12, Seed: 5}

func TestAdaptiveRetrieves(t *testing.T) {
	if AdaptiveRetrieves(1) != 1000 {
		t.Fatalf("nt=1 → %d", AdaptiveRetrieves(1))
	}
	if AdaptiveRetrieves(10000) != 24 {
		t.Fatalf("nt=10000 → %d", AdaptiveRetrieves(10000))
	}
	if AdaptiveRetrieves(0) != 1000 {
		t.Fatalf("nt=0 → %d", AdaptiveRetrieves(0))
	}
	// Monotone non-increasing.
	prev := AdaptiveRetrieves(1)
	for _, nt := range []int{10, 100, 1000, 10000} {
		cur := AdaptiveRetrieves(nt)
		if cur > prev {
			t.Fatalf("not monotone at %d", nt)
		}
		prev = cur
	}
}

func TestRunProvisionsStructures(t *testing.T) {
	// Each strategy must get the structures it needs, and only those.
	for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.DFSCACHE, strategy.DFSCLUST, strategy.SMART} {
		m, err := Run(RunConfig{
			DB:           workload.Config{NumParents: 300, UseFactor: 3, Seed: 2},
			Strategy:     k,
			NumRetrieves: 8,
			NumTop:       5,
		})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.Retrieves != 8 || m.Updates != 0 {
			t.Fatalf("%v: %d retrieves, %d updates", k, m.Retrieves, m.Updates)
		}
		if m.AvgIO <= 0 {
			t.Fatalf("%v: avg = %f", k, m.AvgIO)
		}
	}
}

func TestRunWithUpdates(t *testing.T) {
	m, err := Run(RunConfig{
		DB:           workload.Config{NumParents: 300, UseFactor: 3, Seed: 2},
		Strategy:     strategy.DFSCACHE,
		NumRetrieves: 10,
		PrUpdate:     0.5,
		NumTop:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Updates != 10 {
		t.Fatalf("updates = %d", m.Updates)
	}
	if m.AvgUpdateIO <= 0 {
		t.Fatal("update I/O not measured")
	}
	if m.Cache.Misses == 0 {
		t.Fatal("cache stats not captured")
	}
}

func TestMeasurementConsistency(t *testing.T) {
	m, err := Run(RunConfig{
		DB:           workload.Config{NumParents: 300, UseFactor: 3, Seed: 2},
		Strategy:     strategy.DFS,
		NumRetrieves: 10,
		NumTop:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// AvgIO over retrieves-only sequences equals AvgRetrieveIO, and the
	// Par/Child split must add up to it.
	if m.AvgIO != m.AvgRetrieveIO {
		t.Fatalf("avg %f != retrieve avg %f", m.AvgIO, m.AvgRetrieveIO)
	}
	if diff := m.AvgPar + m.AvgChild - m.AvgRetrieveIO; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("par %f + child %f != retrieve %f", m.AvgPar, m.AvgChild, m.AvgRetrieveIO)
	}
}

func TestExperimentsRegistered(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig7", "nchild", "smart",
		"ext-levels", "ext-value", "abl-buffer", "abl-cachesize", "abl-inside", "abl-sizeunit"}
	if len(Experiments) != len(want) {
		t.Fatalf("%d experiments, want %d", len(Experiments), len(want))
	}
	for i, name := range want {
		if Experiments[i].Name != name {
			t.Fatalf("experiment %d = %q, want %q", i, Experiments[i].Name, name)
		}
		if Experiments[i].Run == nil || Experiments[i].Paper == "" {
			t.Fatalf("experiment %q incomplete", name)
		}
	}
	if _, ok := FindExperiment("fig5"); !ok {
		t.Fatal("FindExperiment(fig5) failed")
	}
	if _, ok := FindExperiment("fig6"); ok {
		t.Fatal("FindExperiment(fig6) succeeded")
	}
}

func TestFig3Tiny(t *testing.T) {
	table, err := Fig3(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("no rows")
	}
	if len(table.Columns) != 4 {
		t.Fatalf("columns = %v", table.Columns)
	}
	// NumTops are clamped to the tiny database.
	last := table.Rows[len(table.Rows)-1][0]
	if last != "300" {
		t.Fatalf("last NumTop = %s", last)
	}
}

func TestFig5TinyHasSplitColumns(t *testing.T) {
	table, err := Fig5(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 10 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	joined := strings.Join(table.Columns, " ")
	for _, want := range []string{"CLUST.Par", "CLUST.Child", "BFS.Tot"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("columns missing %q: %v", want, table.Columns)
		}
	}
}

func TestTableFprint(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("hello %d", 7)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x — t ==", "a", "bb", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScaleNumTopsClamp(t *testing.T) {
	sc := Scale{NumParents: 100, MaxRetrieves: 10}
	got := sc.numTops([]int{1, 50, 200, 1000})
	if len(got) != 3 || got[2] != 100 {
		t.Fatalf("numTops = %v", got)
	}
	if sc.retrieves(1) != 10 {
		t.Fatalf("retrieves = %d", sc.retrieves(1))
	}
}

func TestAllExperimentsTiny(t *testing.T) {
	// Every registered experiment must run end to end at tiny scale and
	// produce a non-empty table — the regression guard for the whole
	// harness surface.
	sc := Scale{NumParents: 400, MaxRetrieves: 8, Seed: 2}
	for _, e := range Experiments {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			table, err := e.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(table.Rows) == 0 {
				t.Fatal("no rows")
			}
			if table.ID == "" || len(table.Columns) < 2 {
				t.Fatalf("malformed table %q", table.ID)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Fatalf("row width %d vs %d columns", len(row), len(table.Columns))
				}
			}
		})
	}
}
