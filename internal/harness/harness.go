// Package harness runs measured query sequences against generated
// databases and reproduces the paper's experiments.
//
// The measurement protocol follows §4: generate a database for a
// parameter point, generate a sequence of retrieves mixed with updates,
// run it through one query-processing strategy, and report the average
// I/O per query. Every (parameter point, strategy) pair gets a freshly
// built database from the same seed, so strategies are compared on
// identical data and identical operation streams.
package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"corep/internal/buffer"
	"corep/internal/cache"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// RunConfig describes one measured run.
type RunConfig struct {
	DB       workload.Config
	Strategy strategy.Kind
	// SmartThreshold overrides SMART's N when > 0.
	SmartThreshold int

	// NumRetrieves is the number of retrieve queries (0 → adaptive from
	// NumTop, capped at 1000 — the paper's typical sequence length).
	NumRetrieves int
	PrUpdate     float64
	// NumTop, or NumTops for a mixed sequence (SMART's scenario).
	NumTop  int
	NumTops []int

	// DeviceLatency is the simulated per-page device latency applied
	// after the build (0: latency-free, the paper's pure-I/O-count mode).
	DeviceLatency time.Duration

	// Obs configures tracing/metrics for this run. Metric names get a
	// per-cell "STRATEGY|SF=n|NT=n|" prefix so grid sweeps sharing one
	// registry stay distinguishable.
	Obs obs.Options

	// Cells, when non-nil, receives this run's exact disk reads and
	// writes under a label naming the cell (TestFigureIOGolden).
	Cells *CellLog
}

// CellIO is the exact disk traffic of one measured cell: the unrounded
// counts behind a table's one-decimal average.
type CellIO struct {
	Label  string `json:"label"`
	Reads  int64  `json:"reads"`
	Writes int64  `json:"writes"`
}

// CellLog collects the CellIO of every measured run of an experiment.
// The nil log discards; a non-nil log is safe for the concurrent grid
// batches.
type CellLog struct {
	mu    sync.Mutex
	cells []CellIO
}

// Add records one cell's measured-sequence disk delta.
func (l *CellLog) Add(label string, d disk.Stats) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.cells = append(l.cells, CellIO{Label: label, Reads: d.Reads, Writes: d.Writes})
	l.mu.Unlock()
}

// Sorted returns the recorded cells ordered by label (then counts), so
// a parallel grid logs the same list on every run.
func (l *CellLog) Sorted() []CellIO {
	l.mu.Lock()
	out := append([]CellIO(nil), l.cells...)
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b CellIO) int {
		return cmp.Or(strings.Compare(a.Label, b.Label), cmp.Compare(a.Reads, b.Reads), cmp.Compare(a.Writes, b.Writes))
	})
	return out
}

// Measurement is the result of one run.
type Measurement struct {
	Strategy  strategy.Kind
	Retrieves int
	Updates   int

	// AvgIO is total sequence I/O divided by the number of queries — the
	// paper's yardstick.
	AvgIO float64
	// AvgRetrieveIO / AvgUpdateIO split the same total by op kind.
	AvgRetrieveIO float64
	AvgUpdateIO   float64
	// AvgPar / AvgChild decompose retrieve cost (Figure 5).
	AvgPar   float64
	AvgChild float64

	// TotalIO is the sequence's total charged page I/O (= AvgIO × ops);
	// the span-sum test reconciles per-op root spans against it.
	TotalIO int64
	// Disk / Buffer are the counter deltas over the measured sequence.
	Disk   disk.Stats
	Buffer buffer.Stats

	Cache cache.Stats // zero unless the strategy uses the cache

	// Prefetch holds the prefetcher's counter deltas (zero when prefetch
	// is disabled, the default).
	Prefetch buffer.PrefetchStats
}

func (m Measurement) String() string {
	return fmt.Sprintf("%s: avg=%.1f (retr=%.1f par=%.1f child=%.1f upd=%.1f) over %d retrieves + %d updates",
		m.Strategy, m.AvgIO, m.AvgRetrieveIO, m.AvgPar, m.AvgChild, m.AvgUpdateIO, m.Retrieves, m.Updates)
}

// AdaptiveRetrieves picks a sequence length: the paper's 1000 at small
// NumTop, fewer at large NumTop where per-query cost converges quickly.
func AdaptiveRetrieves(numTop int) int {
	if numTop < 1 {
		numTop = 1
	}
	n := 240000 / numTop
	if n > 1000 {
		n = 1000
	}
	if n < 24 {
		n = 24
	}
	return n
}

// provisionFor adapts a database config to the structures the strategy
// needs, as the paper's experiments do (Figure 2's representation
// choices): caching strategies get a value cache, DFSCLUST gets the
// clustered relation, everything else gets the bare base relations.
func provisionFor(kind strategy.Kind, dbCfg workload.Config) workload.Config {
	switch kind {
	case strategy.DFSCACHE, strategy.SMART, strategy.DFSCACHEINSIDE:
		if dbCfg.CacheUnits == 0 {
			dbCfg.CacheUnits = workload.DefaultCacheUnits
		}
		dbCfg.Clustered = false
	case strategy.DFSCLUST:
		dbCfg.Clustered = true
		dbCfg.CacheUnits = 0
	default:
		dbCfg.Clustered = false
		dbCfg.CacheUnits = 0
	}
	return dbCfg
}

// Run builds the database, generates the sequence, executes it and
// returns the measurement.
func Run(rc RunConfig) (*Measurement, error) {
	dbCfg := provisionFor(rc.Strategy, rc.DB.WithDefaults())
	db, err := workload.Build(dbCfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	db.Disk.SetLatency(rc.DeviceLatency)
	if rc.Obs.Enabled() {
		ntLabel := fmt.Sprintf("%d", rc.NumTop)
		if len(rc.NumTops) > 0 {
			ntLabel = "mix"
		}
		cell := fmt.Sprintf("%s|SF=%d|NT=%s|", rc.Strategy, dbCfg.ShareFactor(), ntLabel)
		db.AttachObs(rc.Obs.WithPrefix(cell))
	}
	var st strategy.Strategy
	if rc.Strategy == strategy.SMART && rc.SmartThreshold > 0 {
		st, err = strategy.NewSmart(db, rc.SmartThreshold)
	} else {
		st, err = strategy.New(rc.Strategy, db)
	}
	if err != nil {
		return nil, err
	}

	numTops := rc.NumTops
	if len(numTops) == 0 {
		numTops = []int{rc.NumTop}
	}
	nRetr := rc.NumRetrieves
	if nRetr == 0 {
		maxTop := 0
		for _, nt := range numTops {
			if nt > maxTop {
				maxTop = nt
			}
		}
		nRetr = AdaptiveRetrieves(maxTop)
	}
	ops := db.GenMixedSequence(nRetr, rc.PrUpdate, numTops)
	m, err := Execute(db, st, ops)
	if err == nil {
		// Every config field, not Config.String's summary: cells of one
		// experiment may differ only in pool size or policy.
		type allFields workload.Config
		rc.Cells.Add(fmt.Sprintf("%s numtops=%v retrieves=%d pr=%g smartN=%d %+v",
			rc.Strategy, numTops, nRetr, rc.PrUpdate, rc.SmartThreshold, allFields(dbCfg)), m.Disk)
	}
	return m, err
}

// Execute runs a prepared sequence against a prepared database. Each
// op gets a root span ("query.retrieve" / "query.update") opened and
// closed at exactly the points the harness snapshots its own counters,
// so the root spans' I/O sums to Measurement.TotalIO.
func Execute(db *workload.DB, st strategy.Strategy, ops []workload.Op) (*Measurement, error) {
	if err := db.ResetCold(); err != nil {
		return nil, err
	}
	ob := db.Obs
	startDisk := db.Disk.Stats()
	startBuf := db.Pool.Stats()
	startPref := db.Pool.Prefetcher().Stats()
	var startCache cache.Stats
	if db.Cache != nil {
		startCache = db.Cache.Stats()
	}
	m := &Measurement{Strategy: st.Kind()}
	var retrIO, updIO int64
	var split strategy.CostSplit
	for _, op := range ops {
		before := db.Disk.Stats().Total()
		switch op.Kind {
		case workload.OpRetrieve:
			sp := ob.Start("query.retrieve")
			sp.SetAttr("numtop", op.Hi-op.Lo+1)
			res, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
			if err != nil {
				return nil, fmt.Errorf("harness: %s retrieve [%d,%d]: %w", st.Kind(), op.Lo, op.Hi, err)
			}
			sp.End()
			split.Add(res.Split)
			d := db.Disk.Stats().Total() - before
			retrIO += d
			m.Retrieves++
			ob.Histogram("query.io", obs.IOBuckets).Observe(float64(d))
			ob.Histogram("retrieve.io", obs.IOBuckets).Observe(float64(d))
		case workload.OpUpdate:
			sp := ob.Start("query.update")
			sp.SetAttr("targets", int64(len(op.Targets)))
			if err := st.Update(db, op); err != nil {
				return nil, fmt.Errorf("harness: %s update: %w", st.Kind(), err)
			}
			sp.End()
			d := db.Disk.Stats().Total() - before
			updIO += d
			m.Updates++
			ob.Histogram("query.io", obs.IOBuckets).Observe(float64(d))
			ob.Histogram("update.io", obs.IOBuckets).Observe(float64(d))
		}
	}
	total := retrIO + updIO
	m.TotalIO = total
	if n := m.Retrieves + m.Updates; n > 0 {
		m.AvgIO = float64(total) / float64(n)
	}
	if m.Retrieves > 0 {
		m.AvgRetrieveIO = float64(retrIO) / float64(m.Retrieves)
		m.AvgPar = float64(split.Par) / float64(m.Retrieves)
		m.AvgChild = float64(split.Child) / float64(m.Retrieves)
	}
	if m.Updates > 0 {
		m.AvgUpdateIO = float64(updIO) / float64(m.Updates)
	}
	m.Disk = db.Disk.Stats().Sub(startDisk)
	m.Buffer = db.Pool.Stats().Sub(startBuf)
	m.Prefetch = db.Pool.Prefetcher().Stats().Sub(startPref)
	if db.Cache != nil {
		m.Cache = db.Cache.Stats().Sub(startCache)
	}
	if ob.Enabled() {
		ob.AddCounters(m.Disk.Counters())
		ob.AddCounters(m.Buffer.Counters())
		if db.Pool.Prefetcher() != nil {
			ob.AddCounters(m.Prefetch.Counters())
		}
		ob.Gauge("buffer.resident").Set(int64(db.Pool.Resident()))
		if db.Cache != nil {
			ob.AddCounters(m.Cache.Counters())
			ob.Gauge("cache.units").Set(int64(db.Cache.Len()))
		}
	}
	return m, nil
}
