// Benchmarks regenerating each table and figure of the paper at reduced
// scale. One benchmark family per figure: the io/query metric reported
// by each sub-benchmark is the paper's yardstick (average page I/O per
// query); ns/op only reflects the simulator's speed.
//
// Paper-scale runs (10,000 parents, sequences up to 1000 queries) are
// produced by `go run ./cmd/corepbench -all`; these benches use the
// quick scale so the whole suite finishes in minutes. EXPERIMENTS.md
// records paper-vs-measured for both.
package corep_test

import (
	"fmt"
	"testing"

	"corep/internal/harness"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// benchScale mirrors harness.QuickScale but with shorter sequences so a
// single b.N iteration stays sub-second.
const (
	benchParents   = 2000
	benchRetrieves = 24
)

// measure runs one (config, strategy, numTop, prUpdate) point per
// iteration and reports average I/O per query.
func measure(b *testing.B, cfg workload.Config, kind strategy.Kind, numTop int, pr float64) {
	b.Helper()
	cfg.NumParents = benchParents
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if numTop > benchParents {
		numTop = benchParents
	}
	var lastIO float64
	for i := 0; i < b.N; i++ {
		m, err := harness.Run(harness.RunConfig{
			DB:           cfg,
			Strategy:     kind,
			NumRetrieves: benchRetrieves,
			PrUpdate:     pr,
			NumTop:       numTop,
		})
		if err != nil {
			b.Fatal(err)
		}
		lastIO = m.AvgIO
	}
	b.ReportMetric(lastIO, "io/query")
}

// BenchmarkFig3 regenerates Figure 3: DFS vs BFS vs BFSNODUP over
// NumTop at ShareFactor 5, retrieve-only.
func BenchmarkFig3(b *testing.B) {
	for _, nt := range []int{1, 50, 200, 1000} {
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.BFSNODUP} {
			b.Run(fmt.Sprintf("NumTop=%d/%s", nt, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: 5}, k, nt, 0)
			})
		}
	}
}

// BenchmarkFig4 samples one point per region of Figure 4's cuboid:
// clustering country (SF=1), caching country (high SF, low NumTop, low
// Pr), and BFS country (high NumTop), measuring all three contenders at
// each.
func BenchmarkFig4(b *testing.B) {
	points := []struct {
		name   string
		sf     int
		numTop int
		pr     float64
	}{
		{"clusterRegion/SF=1,NT=50,Pr=0", 1, 50, 0},
		{"cacheRegion/SF=10,NT=10,Pr=0", 10, 10, 0},
		{"bfsRegion/SF=5,NT=1000,Pr=0.5", 5, 1000, 0.5},
		{"updateStorm/SF=5,NT=50,Pr=1", 5, 50, 1},
	}
	for _, p := range points {
		for _, k := range []strategy.Kind{strategy.BFS, strategy.DFSCACHE, strategy.DFSCLUST} {
			b.Run(fmt.Sprintf("%s/%s", p.name, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: p.sf}, k, p.numTop, p.pr)
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5's comparison: DFSCLUST vs BFS as
// ShareFactor varies at NumTop=200, Pr(UPDATE)→1.
func BenchmarkFig5(b *testing.B) {
	for _, sf := range []int{1, 3, 5, 10} {
		for _, k := range []strategy.Kind{strategy.DFSCLUST, strategy.BFS} {
			b.Run(fmt.Sprintf("SF=%d/%s", sf, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: sf}, k, 200, 1)
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: clustering under OverlapFactor 1
// vs 5 (both ShareFactor 5) against BFS.
func BenchmarkFig7(b *testing.B) {
	configs := []struct {
		name string
		cfg  workload.Config
	}{
		{"OF=1,UF=5", workload.Config{UseFactor: 5, OverlapFactor: 1}},
		{"OF=5,UF=1", workload.Config{UseFactor: 1, OverlapFactor: 5}},
	}
	for _, c := range configs {
		for _, nt := range []int{50, 500} {
			for _, k := range []strategy.Kind{strategy.DFSCLUST, strategy.BFS} {
				b.Run(fmt.Sprintf("%s/NumTop=%d/%s", c.name, nt, k), func(b *testing.B) {
					measure(b, c.cfg, k, nt, 1)
				})
			}
		}
	}
}

// BenchmarkNChild regenerates §6.2: sensitivity to the number of child
// relations.
func BenchmarkNChild(b *testing.B) {
	for _, ncr := range []int{1, 5, 20} {
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.DFSCLUST} {
			b.Run(fmt.Sprintf("NumChildRel=%d/%s", ncr, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: 5, NumChildRel: ncr}, k, 50, 0)
			})
		}
	}
}

// BenchmarkSmart regenerates §5.3: SMART against its two ingredients on
// a mixed sequence.
func BenchmarkSmart(b *testing.B) {
	for _, k := range []strategy.Kind{strategy.BFS, strategy.DFSCACHE, strategy.SMART} {
		b.Run(k.String(), func(b *testing.B) {
			var lastIO float64
			for i := 0; i < b.N; i++ {
				m, err := harness.Run(harness.RunConfig{
					DB:           workload.Config{UseFactor: 10, NumParents: benchParents, Seed: 1},
					Strategy:     k,
					NumRetrieves: benchRetrieves,
					PrUpdate:     0.1,
					NumTops:      []int{10, 1000},
				})
				if err != nil {
					b.Fatal(err)
				}
				lastIO = m.AvgIO
			}
			b.ReportMetric(lastIO, "io/query")
		})
	}
}

// BenchmarkExtLevels regenerates the §5.1 extension: BFSNODUP's benefit
// on two-level (three-dot) queries.
func BenchmarkExtLevels(b *testing.B) {
	db, err := workload.BuildTwoLevel(workload.TwoLevelConfig{
		Config: workload.Config{NumParents: benchParents, UseFactor: 5, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.BFSNODUP} {
		b.Run(k.String(), func(b *testing.B) {
			st, err := strategy.New(k, db.DB)
			if err != nil {
				b.Fatal(err)
			}
			var lastIO float64
			for i := 0; i < b.N; i++ {
				if err := db.ResetCold(); err != nil {
					b.Fatal(err)
				}
				ops := db.GenSequence(benchRetrieves, 0, 200)
				start := db.Disk.Stats().Total()
				for _, op := range ops {
					if _, err := st.Retrieve(db.DB, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
						b.Fatal(err)
					}
				}
				lastIO = float64(db.Disk.Stats().Total()-start) / float64(len(ops))
			}
			b.ReportMetric(lastIO, "io/query")
		})
	}
}

// BenchmarkAblBuffer sweeps the buffer-pool size (the paper fixes 100
// pages).
func BenchmarkAblBuffer(b *testing.B) {
	for _, pages := range []int{25, 100, 400} {
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS} {
			b.Run(fmt.Sprintf("pages=%d/%s", pages, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: 5, PoolPages: pages}, k, 200, 0)
			})
		}
	}
}

// BenchmarkAblCacheSize sweeps SizeCache (the paper fixes 1000 units).
func BenchmarkAblCacheSize(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("SizeCache=%d", size), func(b *testing.B) {
			measure(b, workload.Config{UseFactor: 10, CacheUnits: size}, strategy.DFSCACHE, 10, 0)
		})
	}
}

// BenchmarkAblInside compares outside caching with the inside-caching
// ablation under shared units.
func BenchmarkAblInside(b *testing.B) {
	for _, uf := range []int{1, 5} {
		for _, k := range []strategy.Kind{strategy.DFSCACHE, strategy.DFSCACHEINSIDE} {
			b.Run(fmt.Sprintf("UF=%d/%s", uf, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: uf}, k, 10, 0)
			})
		}
	}
}

// BenchmarkAblSizeUnit sweeps the unit size (the paper fixes 5).
func BenchmarkAblSizeUnit(b *testing.B) {
	for _, su := range []int{2, 5, 15} {
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS} {
			b.Run(fmt.Sprintf("SizeUnit=%d/%s", su, k), func(b *testing.B) {
				measure(b, workload.Config{UseFactor: 5, SizeUnit: su}, k, 50, 0)
			})
		}
	}
}

// BenchmarkExtValue regenerates the §2.4 cross-column extension: the
// value-based representation against the OID column.
func BenchmarkExtValue(b *testing.B) {
	for _, uf := range []int{1, 5} {
		b.Run(fmt.Sprintf("UF=%d/VALUE", uf), func(b *testing.B) {
			db, err := workload.BuildValueBased(workload.Config{
				NumParents: benchParents, UseFactor: uf, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var lastIO float64
			for i := 0; i < b.N; i++ {
				if err := db.ResetCold(); err != nil {
					b.Fatal(err)
				}
				ops := db.GenSequence(benchRetrieves, 0.25, 50)
				start := db.Disk.Stats().Total()
				for _, op := range ops {
					switch op.Kind {
					case workload.OpRetrieve:
						if _, err := strategy.ValueScan(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
							b.Fatal(err)
						}
					case workload.OpUpdate:
						if err := strategy.ValueUpdate(db, op); err != nil {
							b.Fatal(err)
						}
					}
				}
				lastIO = float64(db.Disk.Stats().Total()-start) / float64(len(ops))
			}
			b.ReportMetric(lastIO, "io/query")
		})
		b.Run(fmt.Sprintf("UF=%d/BFS", uf), func(b *testing.B) {
			measure(b, workload.Config{UseFactor: uf}, strategy.BFS, 50, 0.25)
		})
	}
}
