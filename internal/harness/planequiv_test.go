package harness

import (
	"fmt"
	"slices"
	"testing"

	"corep/internal/planner"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// TestPlannerDifferentialFigureGrid is the plan-equivalence anchor for
// the cost-based planner: across the figure-grid parameter cells and
// query widths, the planner arm must return rows identical (as a sorted
// multiset) to every static strategy it can dispatch to, before and
// after a mixed update sequence, and its measured I/O over the query
// set must never exceed the worst static plan's. Mirrors
// TestVersionedDifferentialAllStrategies: the planner is "one of them
// per query", so any divergence is a dispatch or state bug.
func TestPlannerDifferentialFigureGrid(t *testing.T) {
	grid := []workload.Config{
		{UseFactor: 1},
		{UseFactor: 5},
		{UseFactor: 2, OverlapFactor: 3},
		{UseFactor: 5, NumChildRel: 3},
	}
	widths := []int{1, 10, 100, 300}
	for _, base := range grid {
		base := base
		label := fmt.Sprintf("UF=%d_OF=%d_NCR=%d", base.UseFactor, max(base.OverlapFactor, 1), max(base.NumChildRel, 1))
		t.Run(label, func(t *testing.T) {
			cfg := base
			cfg.NumParents = 400
			cfg.Seed = 17
			cfg.Clustered = true
			cfg.CacheUnits = 200
			cfg = cfg.WithDefaults()
			db, err := workload.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			pl, err := planner.NewPlanned(db, planner.New(planner.Config{Shape: planner.ShapeOf(db), Seed: 17}))
			if err != nil {
				t.Fatal(err)
			}
			statics := map[strategy.Kind]strategy.Strategy{}
			for _, k := range planner.CandidateKinds(planner.ShapeOf(db)) {
				st, err := strategy.New(k, db)
				if err != nil {
					t.Fatal(err)
				}
				statics[k] = st
			}
			if cfg.ShareFactor() == 1 {
				if _, ok := statics[strategy.BFSNODUP]; !ok {
					t.Fatal("BFSNODUP missing from candidates at share factor 1")
				}
			} else if _, ok := statics[strategy.BFSNODUP]; ok {
				t.Fatal("BFSNODUP offered at share factor > 1: its rows would diverge")
			}

			n := int64(cfg.NumParents)
			var queries []strategy.Query
			for _, w := range widths {
				lo := n/2 - int64(w)/2
				if lo < 0 {
					lo = 0
				}
				hi := lo + int64(w) - 1
				if hi >= n {
					hi = n - 1
				}
				queries = append(queries,
					strategy.Query{Lo: lo, Hi: hi, AttrIdx: workload.FieldRet1},
					strategy.Query{Lo: 0, Hi: int64(w) - 1, AttrIdx: workload.FieldRet2},
				)
			}

			var plannerIO int64
			staticIO := map[strategy.Kind]int64{}
			check := func(stage string) {
				for qi, q := range queries {
					pres, err := pl.Retrieve(db, q)
					if err != nil {
						t.Fatalf("%s query %d: planner: %v", stage, qi, err)
					}
					plannerIO += pres.Split.Total()
					want := sortedVals(pres.Values)
					for k, st := range statics {
						res, err := st.Retrieve(db, q)
						if err != nil {
							t.Fatalf("%s query %d: %s: %v", stage, qi, k, err)
						}
						staticIO[k] += res.Split.Total()
						if !slices.Equal(sortedVals(res.Values), want) {
							t.Fatalf("%s query %d [%d,%d] attr %d: %s rows diverge from planner (%d vs %d values)",
								stage, qi, q.Lo, q.Hi, q.AttrIdx, k, len(res.Values), len(pres.Values))
						}
					}
				}
			}

			check("cold")
			// Mixed updates through the planner's composite write-through
			// (cache-aware path + cluster layout), then re-check: every
			// candidate layout must still agree.
			for _, op := range db.GenSequence(10, 0.5, 10) {
				if op.Kind != workload.OpUpdate {
					continue
				}
				if err := pl.Update(db, op); err != nil {
					t.Fatal(err)
				}
			}
			check("after-updates")

			worst := int64(0)
			for _, io := range staticIO {
				if io > worst {
					worst = io
				}
			}
			if plannerIO > worst {
				t.Fatalf("planner spent %d pages over the query set, worse than the worst static plan (%d): %v",
					plannerIO, worst, staticIO)
			}
			if s := pl.P.Stats(); s.Choices == 0 || s.Observed == 0 {
				t.Fatalf("planner made no observed choices: %+v", s)
			}
		})
	}
}

// TestPlannerSweepReduced runs a miniature shifting-mix sweep end to
// end in tier-1: row identity holds across arms and phases, the result
// serializes, and the planner's full-run I/O lands no worse than the
// worst static arm (the full acceptance gates run in the benchmark
// job, where the phases are long enough for estimates to converge).
func TestPlannerSweepReduced(t *testing.T) {
	cfg := plannerGrid(gridOf(t, "planner", true))
	cfg.DB.NumParents = 400
	cfg.DB.CacheUnits = 400
	cfg.Phases = []PlannerPhase{
		{Name: "narrow", Retrieves: 40, NumTop: 6, PrUpdate: 0},
		{Name: "scan", Retrieves: 10, NumTop: 128, PrUpdate: 0},
		{Name: "churn", Retrieves: 40, NumTop: 6, PrUpdate: 0.5},
	}
	res, err := RunPlannerSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsCompared == 0 {
		t.Fatal("no rows compared")
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	pl := strategy.Planned.String()
	worst := -1.0
	for arm, v := range res.TotalIOPerQuery {
		if arm == pl {
			continue
		}
		if v > worst {
			worst = v
		}
	}
	if got := res.TotalIOPerQuery[pl]; got > worst {
		t.Fatalf("planner full-run %.2f io/query worse than worst static %.2f", got, worst)
	}
	if res.Activity.Choices != 90 {
		t.Fatalf("planner made %d choices, want 90 retrieves", res.Activity.Choices)
	}
	var cells int
	for _, c := range res.Cells() {
		cells++
		if c.Name == "" {
			t.Fatal("unnamed bench cell")
		}
	}
	// 3 phases × 6 arms + 6 full-run cells + the gate cell.
	if cells != 3*len(res.Arms)+len(res.Arms)+1 {
		t.Fatalf("bench cells = %d with %d arms", cells, len(res.Arms))
	}
}

// TestPlannerGateHoldsAcrossSeeds runs the checked-in planner sweep at
// seeds 1-7 and holds each to the sweep's own gate. BENCH_planner.json
// pins one seed; the earn-your-keep verdicts (EXPERIMENTS.md) rest on
// all seven, so a guardrail that only the default seed tolerates losing
// fails here.
func TestPlannerGateHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("seven full planner sweeps of deterministic counts")
	}
	s, _ := FindSweep("planner")
	for seed := int64(1); seed <= 7; seed++ {
		rep, err := s.Run(SweepOpts{Seed: &seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Check() {
			t.Errorf("seed %d: %v", seed, v)
		}
	}
}
