package harness

import (
	"fmt"
	"slices"

	"corep/internal/strategy"
	"corep/internal/workload"
)

// VerifyAgreement is the end-to-end self-check behind `corepbench
// -verify`: on databases spanning the parameter space, every strategy
// must answer every query with the same multiset of values (BFSNODUP:
// the same set), before and after a mixed update sequence. The
// strategies share no code on their read paths — DFS probes B-trees,
// BFS merge-joins temporaries, DFSCACHE reads the hash-file cache,
// DFSCLUST scans ClusterRel through the ISAM index — so agreement is
// strong evidence the storage engine and every plan are correct.
func VerifyAgreement(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "verify",
		Title:   "cross-strategy agreement check",
		Columns: []string{"config", "queries", "values", "result"},
	}
	configs := []workload.Config{
		{UseFactor: 1},
		{UseFactor: 5},
		{UseFactor: 2, OverlapFactor: 3},
		{UseFactor: 5, NumChildRel: 3},
	}
	for _, cfg := range configs {
		cfg.NumParents = sc.NumParents
		if cfg.NumParents > 2000 {
			cfg.NumParents = 2000 // agreement needs breadth, not bulk
		}
		cfg.Seed = sc.Seed
		cfg.Clustered = true
		cfg.CacheUnits = 200
		label := fmt.Sprintf("UF=%d OF=%d NCR=%d", cfg.UseFactor, max(cfg.OverlapFactor, 1), max(cfg.NumChildRel, 1))
		queries, values, err := verifyOne(cfg)
		result := "PASS"
		if err != nil {
			result = "FAIL: " + err.Error()
		}
		t.AddRow(label, fmt.Sprintf("%d", queries), fmt.Sprintf("%d", values), result)
		if err != nil {
			return t, err
		}
	}
	t.AddNote("every strategy answered every query identically, before and after updates")
	return t, nil
}

// verifyOne checks one configuration, returning how many queries and
// values were compared.
func verifyOne(cfg workload.Config) (int, int, error) {
	db, err := workload.Build(cfg)
	if err != nil {
		return 0, 0, err
	}
	sts := make(map[strategy.Kind]strategy.Strategy)
	for _, k := range strategy.AllKindsWithAblations {
		st, err := strategy.New(k, db)
		if err != nil {
			return 0, 0, err
		}
		sts[k] = st
	}
	n := cfg.NumParents
	queries := []strategy.Query{
		{Lo: 0, Hi: 0, AttrIdx: workload.FieldRet1},
		{Lo: int64(n / 4), Hi: int64(n/4 + 9), AttrIdx: workload.FieldRet2},
		{Lo: 0, Hi: int64(n - 1), AttrIdx: workload.FieldRet3},
		{Lo: int64(n - 25), Hi: int64(n - 1), AttrIdx: workload.FieldRet1},
	}
	totalQ, totalV := 0, 0
	check := func() error {
		for _, q := range queries {
			ref, err := sts[strategy.DFS].Retrieve(db, q)
			if err != nil {
				return err
			}
			want := sortedVals(ref.Values)
			totalQ++
			totalV += len(want)
			for _, k := range strategy.AllKindsWithAblations {
				if k == strategy.DFS {
					continue
				}
				got, err := sts[k].Retrieve(db, q)
				if err != nil {
					return fmt.Errorf("%v on [%d,%d]: %w", k, q.Lo, q.Hi, err)
				}
				g := sortedVals(got.Values)
				if k == strategy.BFSNODUP {
					if !slices.Equal(g, dedupVals(want)) {
						return fmt.Errorf("%v set mismatch on [%d,%d]", k, q.Lo, q.Hi)
					}
					continue
				}
				if !slices.Equal(g, want) {
					return fmt.Errorf("%v mismatch on [%d,%d]: %d vs %d values", k, q.Lo, q.Hi, len(g), len(want))
				}
			}
		}
		return nil
	}
	if err := check(); err != nil {
		return totalQ, totalV, err
	}
	// Mixed updates through every layout, then re-check.
	ops := db.GenSequence(10, 0.5, 10)
	for _, op := range ops {
		if op.Kind != workload.OpUpdate {
			continue
		}
		if err := sts[strategy.DFSCACHE].Update(db, op); err != nil {
			return totalQ, totalV, err
		}
		if err := db.ApplyUpdateCluster(op); err != nil {
			return totalQ, totalV, err
		}
	}
	if err := check(); err != nil {
		return totalQ, totalV, fmt.Errorf("after updates: %w", err)
	}
	if err := db.Cache.CheckInvariants(); err != nil {
		return totalQ, totalV, err
	}
	return totalQ, totalV, nil
}

func sortedVals(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func dedupVals(sorted []int64) []int64 {
	var out []int64
	for i, v := range sorted {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
