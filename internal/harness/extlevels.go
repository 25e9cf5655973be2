package harness

import (
	"fmt"

	"corep/internal/strategy"
	"corep/internal/workload"
)

// ExtLevels is an extension experiment testing a claim the paper makes
// but does not plot (§5.1): "the benefits of BFSNODUP will increase
// with an increase in the number of levels explored. But our
// experiments have shown that the benefit so obtained is marginal at
// best."
//
// We measure Cost(BFS)/Cost(BFSNODUP) for one-level and two-level
// queries over databases with identical sharing at every level: a ratio
// above 1 is a BFSNODUP benefit, and the claim predicts ratio(2 levels)
// > ratio(1 level), both modest.
func ExtLevels(sc Scale) (*Table, error) {
	t := &Table{
		ID:    "ext-levels",
		Title: "BFSNODUP benefit vs levels explored (ShareFactor=5 per level, Pr(UPDATE)=0)",
		Columns: []string{"NumTop",
			"1-level BFS", "1-level NODUP", "benefit",
			"2-level BFS", "2-level NODUP", "benefit"},
	}
	var oneLast, twoLast float64
	for _, nt := range sc.numTops([]int{50, 200, 1000, 5000}) {
		row := []string{fmt.Sprintf("%d", nt)}
		// One level: the flat database.
		var one [2]float64
		for i, k := range []strategy.Kind{strategy.BFS, strategy.BFSNODUP} {
			m, err := sc.run(workload.Config{UseFactor: 5}, k, nt, 0)
			if err != nil {
				return nil, err
			}
			one[i] = m.AvgIO
		}
		// Two levels: parents → mids → leaves, UseFactor 5 at each.
		db, err := workload.BuildTwoLevel(workload.TwoLevelConfig{
			Config: workload.Config{
				NumParents: sc.NumParents, UseFactor: 5, Seed: sc.Seed,
			},
		})
		if err != nil {
			return nil, err
		}
		var two [2]float64
		for i, k := range []strategy.Kind{strategy.BFS, strategy.BFSNODUP} {
			st, err := strategy.New(k, db.DB)
			if err != nil {
				return nil, err
			}
			if err := db.ResetCold(); err != nil {
				return nil, err
			}
			ops := db.GenSequence(sc.retrieves(nt), 0, nt)
			start := db.Disk.Stats()
			n := 0
			for _, op := range ops {
				if op.Kind != workload.OpRetrieve {
					continue
				}
				if _, err := st.Retrieve(db.DB, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
					return nil, err
				}
				n++
			}
			d := db.Disk.Stats().Sub(start)
			sc.Cells.Add(fmt.Sprintf("two-level %s numtop=%d", k, nt), d)
			two[i] = float64(d.Total()) / float64(n)
		}
		oneLast, twoLast = one[0]/one[1], two[0]/two[1]
		row = append(row,
			f1(one[0]), f1(one[1]), f2(oneLast),
			f1(two[0]), f1(two[1]), f2(twoLast))
		t.AddRow(row...)
	}
	t.AddNote("benefit = Cost(BFS)/Cost(BFSNODUP); >1 means duplicate elimination pays")
	t.AddNote("at the largest NumTop: 1-level benefit %.2f vs 2-level benefit %.2f — §5.1 predicts the second exceeds the first, both staying modest", oneLast, twoLast)
	return t, nil
}
