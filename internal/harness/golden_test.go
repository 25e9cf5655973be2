package harness

import (
	"cmp"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figure_io_golden.json from this checkout")

const figureGoldenPath = "testdata/figure_io_golden.json"

// figureGolden is one experiment's fixed point: the table rows it
// prints and the exact reads and writes of every measured cell.
type figureGolden struct {
	Rows  [][]string `json:"rows"`
	Cells []CellIO   `json:"cells"`
}

// sortedCells returns the cells l recorded ordered by label (then
// counts), so a parallel grid logs the same list on every run.
func sortedCells(l *CellLog) []CellIO {
	l.mu.Lock()
	out := append([]CellIO(nil), l.cells...)
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b CellIO) int {
		return cmp.Or(strings.Compare(a.Label, b.Label), cmp.Compare(a.Reads, b.Reads), cmp.Compare(a.Writes, b.Writes))
	})
	return out
}

// TestFigureIOGolden machine-checks the "counted I/O bit-identical"
// fixed point (ROADMAP aim 2): every registered experiment at quick
// scale, seed 1, must print the rows and charge exactly the reads and
// writes per cell recorded in testdata/figure_io_golden.json.
//
// The golden is generated at the PARENT of the commit that changes the
// engine, never from the change itself. The measurement hook is
// harness-only, so it applies onto the parent unchanged:
//
//	git archive --prefix=parent/ <parent> | tar -x -C /root/scratch
//	cp internal/harness/{golden_test,race_on_test,race_off_test,harness,experiments,extlevels,extvalue}.go \
//	   /root/scratch/parent/internal/harness/
//	(cd /root/scratch/parent && go test ./internal/harness -run TestFigureIOGolden -update)
//	cp /root/scratch/parent/internal/harness/testdata/figure_io_golden.json internal/harness/testdata/
//
// A PR that means to change counted I/O regenerates it the same way
// from its own tree and says so.
func TestFigureIOGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	if raceEnabled {
		t.Skip("deterministic single-run counts; the race build covers the same code through the chaos and serving harnesses")
	}
	want := map[string]figureGolden{}
	if !*updateGolden {
		raw, err := os.ReadFile(figureGoldenPath)
		if err != nil {
			t.Fatalf("%v (generate it with -update at the parent commit)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(Experiments) {
			t.Fatalf("golden holds %d experiments, %d are registered", len(want), len(Experiments))
		}
	}
	var mu sync.Mutex
	got := map[string]figureGolden{}
	t.Run("experiments", func(t *testing.T) {
		for _, e := range Experiments {
			t.Run(e.Name, func(t *testing.T) {
				t.Parallel()
				sc := QuickScale
				sc.Cells = &CellLog{}
				tab, err := e.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				g := figureGolden{Rows: tab.Rows, Cells: sortedCells(sc.Cells)}
				mu.Lock()
				got[e.Name] = g
				mu.Unlock()
				if *updateGolden {
					return
				}
				w, ok := want[e.Name]
				if !ok {
					t.Fatalf("no golden for %s", e.Name)
				}
				if len(g.Cells) != len(w.Cells) {
					t.Fatalf("%d measured cells, golden has %d", len(g.Cells), len(w.Cells))
				}
				for i, c := range g.Cells {
					if c != w.Cells[i] {
						t.Errorf("cell %q: reads/writes %d/%d, golden %d/%d (%s)",
							c.Label, c.Reads, c.Writes, w.Cells[i].Reads, w.Cells[i].Writes, w.Cells[i].Label)
					}
				}
				if !reflect.DeepEqual(g.Rows, w.Rows) {
					t.Errorf("printed rows differ:\n got %v\nwant %v", g.Rows, w.Rows)
				}
			})
		}
	})
	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(figureGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
