package harness

import (
	"fmt"
	"sort"
	"time"

	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// Scale sets the size of an experiment run. PaperScale reproduces §4's
// environment; QuickScale shrinks the database and sequences so the
// whole suite runs in a couple of minutes (shapes are preserved, see
// EXPERIMENTS.md).
type Scale struct {
	NumParents   int
	MaxRetrieves int
	Seed         int64

	// DeviceLatency is forwarded to every measured run (corepbench
	// -latency); 0 keeps the paper's latency-free simulation.
	DeviceLatency time.Duration

	// Parallel bounds the worker goroutines used for grid batches
	// (corepbench -parallel); 0 means GOMAXPROCS.
	Parallel int

	// Obs is forwarded to every measured run of the experiment; the
	// zero value collects nothing.
	Obs obs.Options

	// Cells is forwarded likewise: when set, every measured cell logs
	// its exact reads and writes there.
	Cells *CellLog
}

// The two standard scales.
var (
	PaperScale = Scale{NumParents: 10000, MaxRetrieves: 1000, Seed: 1}
	QuickScale = Scale{NumParents: 2000, MaxRetrieves: 160, Seed: 1}
)

// numTops returns a NumTop sweep clamped to the scale's database size.
func (sc Scale) numTops(points []int) []int {
	var out []int
	for _, p := range points {
		if p > sc.NumParents {
			p = sc.NumParents
		}
		if len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out
}

func (sc Scale) retrieves(numTop int) int {
	n := AdaptiveRetrieves(numTop)
	if n > sc.MaxRetrieves {
		n = sc.MaxRetrieves
	}
	return n
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	Name  string
	Paper string // which figure/table/section it reproduces
	Run   func(sc Scale) (*Table, error)
}

// Experiments lists every reproducible figure/table plus the ablations,
// in the order they appear in the paper.
var Experiments = []Experiment{
	{"fig3", "Figure 3: DFS vs BFS vs BFSNODUP over NumTop", Fig3},
	{"fig4", "Figure 4: best-strategy regions over (ShareFactor, NumTop, Pr(UPDATE))", Fig4},
	{"fig5", "Figure 5: ParCost/ChildCost vs ShareFactor for DFSCLUST and BFS", Fig5},
	{"fig7", "Figure 7: Cost(DFSCLUST)/Cost(BFS) under OverlapFactor 1 vs 5", Fig7},
	{"nchild", "Section 6.2: effect of NumChildRel", NChild},
	{"smart", "Section 5.3: the SMART hybrid under a query mix", Smart},
	{"ext-levels", "Extension (§5.1 claim): BFSNODUP benefit vs levels explored", ExtLevels},
	{"ext-value", "Extension (§2.4 future study): value-based vs OID representations", ExtValue},
	{"abl-buffer", "Ablation: buffer pool size", AblBuffer},
	{"abl-cachesize", "Ablation: SizeCache", AblCacheSize},
	{"abl-inside", "Ablation: outside vs inside caching ([JHIN88])", AblInside},
	{"abl-sizeunit", "Ablation: SizeUnit", AblSizeUnit},
}

// FindExperiment resolves an experiment by name.
func FindExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func (sc Scale) run(db workload.Config, kind strategy.Kind, numTop int, pr float64) (*Measurement, error) {
	db.NumParents = sc.NumParents
	db.Seed = sc.Seed
	return Run(RunConfig{
		DB:            db,
		Strategy:      kind,
		NumRetrieves:  sc.retrieves(numTop),
		PrUpdate:      pr,
		NumTop:        numTop,
		DeviceLatency: sc.DeviceLatency,
		Obs:           sc.Obs,
		Cells:         sc.Cells,
	})
}

// Fig3 reproduces Figure 3: average cost of DFS, BFS and BFSNODUP as a
// function of NumTop at ShareFactor 5 (UseFactor 5), no caching or
// clustering, retrieve-only sequences.
func Fig3(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "avg I/O per query vs NumTop (ShareFactor=5, Pr(UPDATE)=0)",
		Columns: []string{"NumTop", "DFS", "BFS", "BFSNODUP"},
	}
	cfg := workload.Config{UseFactor: 5}
	var crossover int
	for _, nt := range sc.numTops([]int{1, 10, 50, 100, 200, 500, 1000, 2000, 5000, 10000}) {
		row := []string{fmt.Sprintf("%d", nt)}
		var vals []float64
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.BFSNODUP} {
			m, err := sc.run(cfg, k, nt, 0)
			if err != nil {
				return nil, err
			}
			vals = append(vals, m.AvgIO)
			row = append(row, f1(m.AvgIO))
		}
		if crossover == 0 && vals[1] < vals[0] {
			crossover = nt
		}
		t.AddRow(row...)
	}
	if crossover > 0 {
		t.AddNote("BFS first beats DFS at NumTop=%d (paper: \"DFS is a loser when NumTop exceeds 50 or so\")", crossover)
	}
	t.AddNote("BFSNODUP tracks BFS closely (paper: \"not much better than simple BFS\")")
	return t, nil
}

// Fig4 reproduces Figure 4: for a grid over (ShareFactor, NumTop,
// Pr(UPDATE)), which of BFS, DFSCACHE, DFSCLUST has the lowest average
// I/O. Printed as one winner-grid slice per Pr(UPDATE).
func Fig4(sc Scale) (*Table, error) {
	shareFactors := []int{1, 2, 5, 10, 25, 50}
	numTops := sc.numTops([]int{1, 10, 50, 200, 1000, 10000})
	prs := []float64{0, 0.25, 0.5, 0.86, 1}
	if sc.NumParents < PaperScale.NumParents {
		// Quick scale: a coarser grid.
		shareFactors = []int{1, 5, 25}
		numTops = sc.numTops([]int{1, 50, 1000})
		prs = []float64{0, 0.5, 1}
	}
	cols := []string{"Pr(UPD)", "SF"}
	for _, nt := range numTops {
		cols = append(cols, fmt.Sprintf("NumTop=%d", nt))
	}
	t := &Table{
		ID:      "fig4",
		Title:   "best of {BFS, DFSCACHE, DFSCLUST} (winner and its avg I/O)",
		Columns: cols,
	}
	// The grid's runs are independent (each owns its simulated disk);
	// execute them concurrently and assemble in order.
	contenders := []strategy.Kind{strategy.BFS, strategy.DFSCACHE, strategy.DFSCLUST}
	var reqs []gridReq
	for _, pr := range prs {
		for _, sf := range shareFactors {
			if sf > sc.NumParents {
				continue
			}
			for _, nt := range numTops {
				for _, k := range contenders {
					reqs = append(reqs, gridReq{cfg: workload.Config{UseFactor: sf}, kind: k, numTop: nt, pr: pr})
				}
			}
		}
	}
	ms, err := sc.runBatch(reqs)
	if err != nil {
		return nil, err
	}
	wins := map[strategy.Kind]int{}
	i := 0
	for _, pr := range prs {
		for _, sf := range shareFactors {
			if sf > sc.NumParents {
				continue
			}
			row := []string{f2(pr), fmt.Sprintf("%d", sf)}
			for range numTops {
				best, bestIO := strategy.Kind(0), 0.0
				for j := range contenders {
					m := ms[i]
					i++
					if j == 0 || m.AvgIO < bestIO {
						best, bestIO = m.Strategy, m.AvgIO
					}
				}
				wins[best]++
				row = append(row, fmt.Sprintf("%s(%.0f)", best, bestIO))
			}
			t.AddRow(row...)
		}
	}
	var kinds []strategy.Kind
	for k := range wins {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		t.AddNote("%s wins %d grid points", k, wins[k])
	}
	t.AddNote("paper: clustering only near ShareFactor=1; caching at low NumTop & low Pr(UPDATE); BFS elsewhere")
	return t, nil
}

// Fig5 reproduces Figure 5(a)/(b): the ParCost/ChildCost/TotCost
// decomposition of DFSCLUST and BFS as ShareFactor varies (via
// UseFactor, OverlapFactor=1) at NumTop=200, Pr(UPDATE)→1.
func Fig5(sc Scale) (*Table, error) {
	numTop := 200
	if numTop > sc.NumParents/4 {
		numTop = sc.NumParents / 4
	}
	t := &Table{
		ID:    "fig5",
		Title: fmt.Sprintf("retrieve cost split vs ShareFactor (NumTop=%d, Pr(UPDATE)→1)", numTop),
		Columns: []string{"SF", "CLUST.Par", "CLUST.Child", "CLUST.Tot",
			"BFS.Par", "BFS.Child", "BFS.Tot"},
	}
	var crossover int
	prevBetter := ""
	for _, sf := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		mc, err := sc.run(workload.Config{UseFactor: sf}, strategy.DFSCLUST, numTop, 1)
		if err != nil {
			return nil, err
		}
		mb, err := sc.run(workload.Config{UseFactor: sf}, strategy.BFS, numTop, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", sf),
			f1(mc.AvgPar), f1(mc.AvgChild), f1(mc.AvgPar+mc.AvgChild),
			f1(mb.AvgPar), f1(mb.AvgChild), f1(mb.AvgPar+mb.AvgChild))
		better := "CLUST"
		if mb.AvgPar+mb.AvgChild < mc.AvgPar+mc.AvgChild {
			better = "BFS"
		}
		if prevBetter == "CLUST" && better == "BFS" && crossover == 0 {
			crossover = sf
		}
		prevBetter = better
	}
	if crossover > 0 {
		t.AddNote("BFS overtakes DFSCLUST at ShareFactor=%d (paper: crossover at 4.7)", crossover)
	}
	t.AddNote("paper: CLUST.Par falls / CLUST.Child rises with ShareFactor; BFS.Child falls (|ChildRel| = 50000/SF)")
	return t, nil
}

// Fig7 reproduces Figure 7: Cost(DFSCLUST)/Cost(BFS) vs NumTop for
// (OverlapFactor=1, UseFactor=5) and (OverlapFactor=5, UseFactor=1) —
// both ShareFactor 5, shared in different ways — at Pr(UPDATE)→1.
func Fig7(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Cost(DFSCLUST)/Cost(BFS) vs NumTop (ShareFactor=5 both ways, Pr(UPDATE)→1)",
		Columns: []string{"NumTop", "ratio OF=1,UF=5", "ratio OF=5,UF=1"},
	}
	configs := []workload.Config{
		{UseFactor: 5, OverlapFactor: 1},
		{UseFactor: 1, OverlapFactor: 5},
	}
	numTops := sc.numTops([]int{1, 10, 50, 200, 1000, 5000, 10000})
	ratios := make([][2]float64, len(numTops))
	for ni, nt := range numTops {
		row := []string{fmt.Sprintf("%d", nt)}
		for ci, cfg := range configs {
			mc, err := sc.run(cfg, strategy.DFSCLUST, nt, 1)
			if err != nil {
				return nil, err
			}
			mb, err := sc.run(cfg, strategy.BFS, nt, 1)
			if err != nil {
				return nil, err
			}
			// The figure plots query cost; Pr(UPDATE)→1 only serves to
			// take caching out of the picture (§6.1), so the ratio uses
			// the retrieve cost, not the update-dominated sequence cost.
			ratio := mc.AvgRetrieveIO / mb.AvgRetrieveIO
			ratios[ni][ci] = ratio
			row = append(row, f2(ratio))
		}
		t.AddRow(row...)
	}
	// Crossover: the NumTop from which the ratio stays above 1 (single
	// excursions below are measurement noise).
	crossoverAt := func(ci int) int {
		for ni := len(numTops) - 1; ni >= 0; ni-- {
			if ratios[ni][ci] <= 1 {
				if ni+1 < len(numTops) {
					return numTops[ni+1]
				}
				return 0
			}
		}
		return numTops[0]
	}
	crossB, crossA := crossoverAt(0), crossoverAt(1)
	if crossA > 0 && crossB > 0 {
		t.AddNote("BFS overtakes clustering at NumTop=%d with OverlapFactor=5 vs NumTop=%d with OverlapFactor=1 (paper: point A < point B)", crossA, crossB)
	}
	t.AddNote("paper: the OverlapFactor=5 curve lies above OverlapFactor=1 — overlap fragments units and degrades clustering")
	return t, nil
}

// NChild reproduces §6.2: the number of child relations has little
// effect on any strategy while NumChildRel ≪ NumTop.
func NChild(sc Scale) (*Table, error) {
	numTops := sc.numTops([]int{50, 500})
	t := &Table{
		ID:      "nchild",
		Title:   "avg I/O per query vs NumChildRel (ShareFactor=5, Pr(UPDATE)=0)",
		Columns: []string{"NumChildRel"},
	}
	kinds := []strategy.Kind{strategy.DFS, strategy.BFS, strategy.DFSCACHE, strategy.DFSCLUST}
	for _, nt := range numTops {
		for _, k := range kinds {
			t.Columns = append(t.Columns, fmt.Sprintf("%s@%d", k, nt))
		}
	}
	for _, ncr := range []int{1, 2, 5, 10, 20} {
		row := []string{fmt.Sprintf("%d", ncr)}
		for _, nt := range numTops {
			for _, k := range kinds {
				m, err := sc.run(workload.Config{UseFactor: 5, NumChildRel: ncr}, k, nt, 0)
				if err != nil {
					return nil, err
				}
				row = append(row, f1(m.AvgIO))
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: \"none of our algorithms is significantly affected by NumChildRel, at least if it is much less than NumTop\"")
	return t, nil
}

// Smart reproduces §5.3: under a mixed workload (half small-NumTop
// queries that keep the cache warm, half at the NumTop under test),
// SMART tracks the better of DFSCACHE and BFS.
func Smart(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "smart",
		Title:   "avg I/O per query on a 50/50 mix of NumTop=10 and NumTop=X (ShareFactor=10, Pr(UPDATE)=0.1)",
		Columns: []string{"X", "BFS", "DFSCACHE", "SMART"},
	}
	for _, nt := range sc.numTops([]int{10, 50, 200, 1000, 5000}) {
		row := []string{fmt.Sprintf("%d", nt)}
		for _, k := range []strategy.Kind{strategy.BFS, strategy.DFSCACHE, strategy.SMART} {
			m, err := Run(RunConfig{
				DB:           workload.Config{UseFactor: 10, NumParents: sc.NumParents, Seed: sc.Seed},
				Strategy:     k,
				NumRetrieves: sc.retrieves(nt),
				PrUpdate:     0.1,
				NumTops:      []int{10, nt},
				Obs:          sc.Obs,
				Cells:        sc.Cells,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f1(m.AvgIO))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: SMART uses DFSCACHE below N=300 and a cache-aware breadth-first pass above, keeping the cache's status invariant")
	return t, nil
}

// AblBuffer sweeps the buffer pool size — a design parameter the paper
// fixes at 100 pages.
func AblBuffer(sc Scale) (*Table, error) {
	numTop := 200
	if numTop > sc.NumParents/4 {
		numTop = sc.NumParents / 4
	}
	t := &Table{
		ID:      "abl-buffer",
		Title:   fmt.Sprintf("avg I/O per query vs buffer pool pages (ShareFactor=5, NumTop=%d)", numTop),
		Columns: []string{"pages", "DFS", "BFS", "DFSCLUST"},
	}
	for _, pages := range []int{25, 50, 100, 200, 400} {
		row := []string{fmt.Sprintf("%d", pages)}
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.DFSCLUST} {
			m, err := sc.run(workload.Config{UseFactor: 5, PoolPages: pages}, k, numTop, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(m.AvgIO))
		}
		t.AddRow(row...)
	}
	t.AddNote("the paper fixes 100 pages; larger pools benefit the probe-heavy strategies most")
	return t, nil
}

// AblCacheSize sweeps SizeCache (the paper fixes 1000 units ≈ 10%% of a
// typical database).
func AblCacheSize(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "abl-cachesize",
		Title:   "DFSCACHE avg I/O per query vs SizeCache (ShareFactor=10, NumTop=10)",
		Columns: []string{"SizeCache", "Pr=0", "Pr=0.5", "hit-rate@Pr=0"},
	}
	for _, size := range []int{100, 250, 500, 1000, 2000} {
		cfg := workload.Config{UseFactor: 10, CacheUnits: size}
		m0, err := sc.run(cfg, strategy.DFSCACHE, 10, 0)
		if err != nil {
			return nil, err
		}
		m5, err := sc.run(cfg, strategy.DFSCACHE, 10, 0.5)
		if err != nil {
			return nil, err
		}
		hr := 0.0
		if h := m0.Cache.Hits + m0.Cache.Misses; h > 0 {
			hr = float64(m0.Cache.Hits) / float64(h)
		}
		t.AddRow(fmt.Sprintf("%d", size), f1(m0.AvgIO), f1(m5.AvgIO), f2(hr))
	}
	t.AddNote("SizeCache bounds the number of units cached; beyond the working set, returns diminish")
	return t, nil
}

// AblInside compares outside caching against the inside-caching
// ablation: with shared units (UseFactor > 1), private per-parent
// entries waste cache space and lose, reproducing the [JHIN88] claim
// the paper builds on (§3.2).
func AblInside(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "abl-inside",
		Title:   "outside vs inside caching, avg I/O per query (NumTop=10, Pr(UPDATE)=0)",
		Columns: []string{"UseFactor", "outside", "inside"},
	}
	for _, uf := range []int{1, 2, 5, 10} {
		mo, err := sc.run(workload.Config{UseFactor: uf}, strategy.DFSCACHE, 10, 0)
		if err != nil {
			return nil, err
		}
		mi, err := sc.run(workload.Config{UseFactor: uf}, strategy.DFSCACHEINSIDE, 10, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", uf), f1(mo.AvgIO), f1(mi.AvgIO))
	}
	t.AddNote("paper/[JHIN88]: \"outside caching is, in general, better than inside caching ... especially when the size of the cache is limited and there is some sharing\"")
	return t, nil
}

// AblSizeUnit sweeps the unit size, fixed at 5 in the paper.
func AblSizeUnit(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "abl-sizeunit",
		Title:   "avg I/O per query vs SizeUnit (ShareFactor=5, NumTop=50, Pr(UPDATE)=0)",
		Columns: []string{"SizeUnit", "DFS", "BFS", "DFSCACHE"},
	}
	for _, su := range []int{2, 5, 10, 20} {
		row := []string{fmt.Sprintf("%d", su)}
		for _, k := range []strategy.Kind{strategy.DFS, strategy.BFS, strategy.DFSCACHE} {
			m, err := sc.run(workload.Config{UseFactor: 5, SizeUnit: su}, k, 50, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(m.AvgIO))
		}
		t.AddRow(row...)
	}
	t.AddNote("larger units amplify the per-parent probe cost, favouring breadth-first and cached plans")
	return t, nil
}
