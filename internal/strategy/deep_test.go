package strategy

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"corep/internal/obs"
	"corep/internal/workload"
)

// Over a two-level database the ordinary Retrieve answers the three-dot
// query retrieve (ParentRel.children.children.attr): MidRel carries a
// children attribute, so DFS, BFS and BFSNODUP walk through it (§3).

func buildTwoLevel(t *testing.T, cfg workload.TwoLevelConfig) *workload.TwoLevelDB {
	t.Helper()
	db, err := workload.BuildTwoLevel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func deepRetrieve(t *testing.T, db *workload.TwoLevelDB, k Kind, q Query) *Result {
	t.Helper()
	res, err := mustNew(t, k, db.DB).Retrieve(db.DB, q)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return res
}

func TestDeepStrategiesAgree(t *testing.T) {
	db := buildTwoLevel(t, workload.TwoLevelConfig{
		Config: workload.Config{NumParents: 200, SizeUnit: 3, UseFactor: 2, Seed: 17},
	})
	queries := []Query{
		{Lo: 0, Hi: 0, AttrIdx: workload.FieldRet1},
		{Lo: 10, Hi: 39, AttrIdx: workload.FieldRet2},
		{Lo: 0, Hi: 199, AttrIdx: workload.FieldRet3},
	}
	for _, q := range queries {
		ref := deepRetrieve(t, db, DFS, q)
		// Each parent contributes SizeUnit mids × SizeUnit leaves.
		if want := q.NumTop() * 3 * 3; len(ref.Values) != want {
			t.Fatalf("DFS returned %d values, want %d", len(ref.Values), want)
		}
		// Batched probes of the last level change the page order, not the
		// rows or their order.
		db.Cfg.ProbeBatch = true
		batched := deepRetrieve(t, db, DFS, q)
		db.Cfg.ProbeBatch = false
		if !equalSlices(batched.Values, ref.Values) {
			t.Fatalf("deep DFS with ProbeBatch disagrees with the probe loop on %+v", q)
		}
		bfs := deepRetrieve(t, db, BFS, q)
		if !equalSlices(sortedCopy(bfs.Values), sortedCopy(ref.Values)) {
			t.Fatalf("deep BFS disagrees with deep DFS on %+v", q)
		}
		// NODUP eliminates duplicates level-wise; its distinct values
		// must equal the distinct values of the full answer.
		nd := deepRetrieve(t, db, BFSNODUP, q)
		if !equalSlices(dedup(nd.Values), dedup(ref.Values)) {
			t.Fatalf("deep BFSNODUP set differs on %+v", q)
		}
	}
}

func TestDeepUnsupportedKinds(t *testing.T) {
	db := buildTwoLevel(t, workload.TwoLevelConfig{
		Config: workload.Config{NumParents: 100, SizeUnit: 2, UseFactor: 2, Seed: 3},
	})
	for _, k := range []Kind{DFSCACHE, DFSCACHEINSIDE, DFSCLUST, SMART} {
		if _, err := New(k, db.DB); !errors.Is(err, ErrOneLevel) {
			t.Fatalf("%v over two levels: err = %v, want ErrOneLevel", k, err)
		}
	}
	if _, err := newSmart(db.DB, 10); !errors.Is(err, ErrOneLevel) {
		t.Fatalf("newSmart over two levels: err = %v, want ErrOneLevel", err)
	}
}

func TestDeepNoDupActuallyDedups(t *testing.T) {
	// With heavy sharing at both levels, NODUP must fetch far fewer
	// leaves than BFS touches.
	db := buildTwoLevel(t, workload.TwoLevelConfig{
		Config:        workload.Config{NumParents: 400, SizeUnit: 4, UseFactor: 4, Seed: 5},
		LeafUseFactor: 4,
	})
	q := Query{Lo: 0, Hi: 199, AttrIdx: workload.FieldRet1}
	full := deepRetrieve(t, db, BFS, q)
	nd := deepRetrieve(t, db, BFSNODUP, q)
	if len(nd.Values) >= len(full.Values) {
		t.Fatalf("NODUP kept %d of %d values", len(nd.Values), len(full.Values))
	}
}

func TestDeepPinHygiene(t *testing.T) {
	db := buildTwoLevel(t, workload.TwoLevelConfig{
		Config: workload.Config{NumParents: 150, SizeUnit: 3, UseFactor: 3, Seed: 9},
	})
	for _, k := range []Kind{DFS, BFS, BFSNODUP} {
		deepRetrieve(t, db, k, Query{Lo: 5, Hi: 80, AttrIdx: workload.FieldRet2})
		if n := db.Pool.PinnedCount(); n != 0 {
			t.Fatalf("%v leaked %d pins", k, n)
		}
	}
}

// TestDeepSpansAreTheFlatOnes: a level is the flat retrieve's own join,
// so a two-level retrieve opens the operator spans a flat one opens and
// no others.
func TestDeepSpansAreTheFlatOnes(t *testing.T) {
	spans := func(db *workload.DB, k Kind) []string {
		sink := obs.NewCollector()
		db.AttachObs(sink)
		// One parent: every join probes, so /probe is opened at each level.
		if _, err := mustNew(t, k, db).Retrieve(db, Query{Lo: 3, Hi: 3, AttrIdx: workload.FieldRet1}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var names []string
		for _, ev := range sink.Spans() {
			if strings.HasPrefix(ev.Name, "strategy.") && !slices.Contains(names, ev.Name) {
				names = append(names, ev.Name)
			}
		}
		slices.Sort(names)
		return names
	}
	cfg := workload.Config{NumParents: 400, SizeUnit: 3, UseFactor: 2, Seed: 17}
	want := map[Kind][]string{
		DFS:      {"strategy.dfs/probe", "strategy.dfs/scan"},
		BFS:      {"strategy.bfs/probe", "strategy.bfs/scan", "strategy.bfs/temp"},
		BFSNODUP: {"strategy.bfs/dedup", "strategy.bfs/probe", "strategy.bfs/scan", "strategy.bfs/temp"},
	}
	for _, k := range []Kind{DFS, BFS, BFSNODUP} {
		flat := spans(buildDB(t, cfg), k)
		deep := spans(buildTwoLevel(t, workload.TwoLevelConfig{Config: cfg}).DB, k)
		if !slices.Equal(flat, want[k]) || !slices.Equal(deep, flat) {
			t.Errorf("%v: flat retrieve opens %v, two-level %v, want %v from both", k, flat, deep, want[k])
		}
	}
}
