package harness

import (
	"fmt"

	"corep/internal/strategy"
	"corep/internal/workload"
)

// ExtValue runs the cross-column comparison the paper defers to "a
// future study" (§2.4): the value-based primary representation against
// the OID column's best strategies, over ShareFactor and Pr(UPDATE).
//
// Expectations from the representations' structure: value-based
// retrieval is a single scan (no joins), so it should win retrieval
// outright at low sharing; replication makes its storage and its update
// fan-out grow with ShareFactor, so updates should erode it exactly
// where clustering also fails.
func ExtValue(sc Scale) (*Table, error) {
	t := &Table{
		ID:    "ext-value",
		Title: "value-based vs OID representations (NumTop=50): avg I/O per query and storage",
		Columns: []string{"SF", "Pr(UPD)",
			"VALUE", "BFS", "DFSCACHE", "DFSCLUST", "VALUE-MB", "OID-MB"},
	}
	numTop := 50
	if numTop > sc.NumParents/4 {
		numTop = sc.NumParents / 4
	}
	for _, sf := range []int{1, 2, 5, 10} {
		for _, pr := range []float64{0, 0.5} {
			row := []string{fmt.Sprintf("%d", sf), f2(pr)}
			// Value-based run.
			vdb, err := workload.BuildValueBased(workload.Config{
				NumParents: sc.NumParents, UseFactor: sf, Seed: sc.Seed,
			})
			if err != nil {
				return nil, err
			}
			ops := vdb.GenSequence(sc.retrieves(numTop), pr, numTop)
			start := vdb.Disk.Stats()
			for _, op := range ops {
				switch op.Kind {
				case workload.OpRetrieve:
					if _, err := strategy.ValueScan(vdb, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
						return nil, err
					}
				case workload.OpUpdate:
					if err := strategy.ValueUpdate(vdb, op); err != nil {
						return nil, err
					}
				}
			}
			d := vdb.Disk.Stats().Sub(start)
			sc.Cells.Add(fmt.Sprintf("VALUE sf=%d pr=%g", sf, pr), d)
			row = append(row, f1(float64(d.Total())/float64(len(ops))))
			valueMB := float64(vdb.Disk.NumPages()) * 2048 / 1e6

			// OID-column contenders.
			var oidMB float64
			for _, k := range []strategy.Kind{strategy.BFS, strategy.DFSCACHE, strategy.DFSCLUST} {
				m, err := sc.run(workload.Config{UseFactor: sf}, k, numTop, pr)
				if err != nil {
					return nil, err
				}
				row = append(row, f1(m.AvgIO))
				if k == strategy.BFS {
					// Storage of the plain OID layout (ParentRel+ChildRel).
					db, err := workload.Build(workload.Config{
						NumParents: sc.NumParents, UseFactor: sf, Seed: sc.Seed,
					})
					if err != nil {
						return nil, err
					}
					oidMB = float64(db.Disk.NumPages()) * 2048 / 1e6
				}
			}
			row = append(row, f2(valueMB), f2(oidMB))
			t.AddRow(row...)
		}
	}
	t.AddNote("VALUE retrieval is one scan (no joins); its storage and update fan-out grow with ShareFactor (replication)")
	t.AddNote("the paper defers this cross-column comparison to 'a future study' (§2.4); this is that experiment")
	return t, nil
}
