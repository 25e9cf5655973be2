package harness

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/strategy"
	"corep/internal/txn"
	"corep/internal/workload"
)

// LatencySummary is one attribution cell's latency distribution: a
// client, an operation kind, or the whole run.
type LatencySummary struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// quantile reads the p-quantile off sorted latencies (the nearest-rank
// convention the serve tier has always used); 0 when there are none.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// summarize sorts lats in place and computes exact percentiles.
func summarize(lats []time.Duration) LatencySummary {
	slices.Sort(lats)
	return LatencySummary{
		Count: len(lats),
		P50:   quantile(lats, 0.50), P95: quantile(lats, 0.95), P99: quantile(lats, 0.99), Max: quantile(lats, 1),
	}
}

// ServeConfig configures one concurrent serving run: K client goroutines
// issuing the paper's retrieve/update mix against a single shared
// database.
type ServeConfig struct {
	DB       workload.Config
	Strategy strategy.Kind

	Clients      int // concurrent client goroutines (K)
	OpsPerClient int // operations each client issues
	PrUpdate     float64
	NumTop       int

	// DiskLatency is slept by the simulated disk per page transfer
	// (0 = none). Serving throughput is about overlapping device waits
	// across pool stripes, so the benchmark models a wait to overlap;
	// I/O counts are unaffected.
	DiskLatency time.Duration

	// Versioned retires the global write latch: updates install
	// epoch-published versions (internal/txn) under per-object latches
	// and retrieves read pinned snapshots with no shared lock at all.
	// After the clients join, the pending versions are drained back into
	// the base layout through the strategy's own Update path. Off (the
	// default), the run uses the historic RW latch. See DESIGN.md §11.
	Versioned bool

	// IsolateErrors keeps the server loop alive when an operation fails:
	// the error is counted (and sampled) in the result instead of
	// cancelling every client. Off by default — benchmarks want
	// fail-fast; a fault-injected server wants one bad query to cost one
	// client one operation.
	IsolateErrors bool

	// FaultPlan, when non-nil, is installed on the database's disk for
	// the measured phase (build and reset run fault-free). Pair it with
	// IsolateErrors unless a single fault should abort the run.
	FaultPlan *disk.FaultPlanConfig
}

// ServeResult is the outcome of one Serve run: throughput plus
// wall-clock latency percentiles across every completed operation,
// decomposed per operation kind and per client.
type ServeResult struct {
	Clients   int           `json:"clients"`
	Shards    int           `json:"pool_shards"`
	Retrieves int           `json:"retrieves"`
	Updates   int           `json:"updates"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	QPS       float64       `json:"qps"`

	// The whole run's latency distribution; PerOp decomposes it by
	// operation kind ("retrieve", "update"), PerClient by client
	// goroutine.
	LatencySummary
	PerOp     map[string]LatencySummary `json:"per_op,omitempty"`
	PerClient []LatencySummary          `json:"per_client,omitempty"`

	TotalIO int64 `json:"total_io"`

	// Failed counts operations that errored under IsolateErrors (always
	// 0 without it: the first error aborts the run instead).
	Failed       int      `json:"failed,omitempty"`
	ErrorSamples []string `json:"error_samples,omitempty"`

	// RetrieveQPS/UpdateQPS split throughput by operation kind over the
	// serving phase — the contention sweep's headline metrics.
	RetrieveQPS float64 `json:"retrieve_qps,omitempty"`
	UpdateQPS   float64 `json:"update_qps,omitempty"`

	// Versioned-serving outcome (cfg.Versioned): how many objects the
	// post-join drain folded back into the base layout, the wall clock it
	// took (reported apart from Elapsed — reconciliation is deferred
	// work, not serving latency), and the version store's counters.
	Versioned    bool          `json:"versioned,omitempty"`
	DrainApplied int           `json:"drain_applied,omitempty"`
	DrainTime    time.Duration `json:"drain_ns,omitempty"`
	Txn          *txn.Stats    `json:"txn,omitempty"`
}

// opLat is one completed operation's latency, tagged by kind.
type opLat struct {
	kind workload.OpKind
	d    time.Duration
}

// Serve builds one database and hammers it with cfg.Clients concurrent
// goroutines, each issuing its share of a pre-generated retrieve/update
// mix. By default retrieves run under the database's shared latch and
// updates under the exclusive latch, so cache I-lock invalidation stays
// correct while readers proceed in parallel (see DESIGN.md
// §Concurrency). With cfg.Versioned the global latch is retired: each
// retrieve pins an epoch snapshot and each update commits versions
// under per-object latches, so neither side ever blocks the other on a
// shared lock (DESIGN.md §11). The first error cancels every client.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.OpsPerClient < 1 {
		cfg.OpsPerClient = 50
	}
	if cfg.NumTop < 1 {
		cfg.NumTop = 1
	}
	// Sequence generation uses the DB's single-threaded rng; the whole mix
	// is produced up front and split into per-client chunks.
	subj, err := openSubject(cfg.Strategy, provisionFor(cfg.Strategy, cfg.DB.WithDefaults()),
		cfg.Clients*cfg.OpsPerClient, cfg.PrUpdate, cfg.NumTop)
	if err != nil {
		return nil, err
	}
	db, st := subj.db, subj.st
	chunks := make([][]workload.Op, cfg.Clients)
	for i, op := range subj.ops {
		c := i % cfg.Clients
		chunks[c] = append(chunks[c], op)
	}
	if err := db.ResetCold(); err != nil {
		return nil, err
	}
	if cfg.Versioned {
		db.EnableVersioning()
	}
	db.Disk.SetLatency(cfg.DiskLatency)
	if cfg.FaultPlan != nil {
		db.Disk.SetFault(disk.NewFaultPlan(*cfg.FaultPlan).Fn())
		defer db.Disk.SetFault(nil)
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		errOnce   sync.Once
		firstErr  error
		retrieves atomic.Int64
		updates   atomic.Int64
		failed    atomic.Int64
		latencies = make([][]opLat, cfg.Clients)
		sampleMu  sync.Mutex
		samples   []string
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	// isolate records an op failure and reports whether the client loop
	// should keep going.
	isolate := func(err error) bool {
		if !cfg.IsolateErrors {
			return false
		}
		failed.Add(1)
		sampleMu.Lock()
		if len(samples) < 5 {
			samples = append(samples, err.Error())
		}
		sampleMu.Unlock()
		return true
	}
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]opLat, 0, len(chunks[c]))
			defer func() { latencies[c] = lats }()
			for _, op := range chunks[c] {
				if stop.Load() {
					return
				}
				opStart := time.Now()
				var opErr error
				switch op.Kind {
				case workload.OpRetrieve:
					if cfg.Versioned {
						snap := db.Versions.Begin()
						_, opErr = st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx, Snap: snap})
						snap.Release()
					} else {
						db.Latch.RLock()
						_, opErr = st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
						db.Latch.RUnlock()
					}
					if opErr != nil {
						opErr = fmt.Errorf("serve: client %d retrieve [%d,%d]: %w", c, op.Lo, op.Hi, opErr)
					}
				case workload.OpUpdate:
					if cfg.Versioned {
						// With the version store installed the strategy's
						// Update stages versions (DB.ApplyUpdate): per-object
						// latches plus the commit epoch bump, no global lock.
						opErr = st.Update(db, op)
					} else {
						db.Latch.Lock()
						opErr = st.Update(db, op)
						db.Latch.Unlock()
					}
					if opErr != nil {
						opErr = fmt.Errorf("serve: client %d update: %w", c, opErr)
					}
				}
				dur := time.Since(opStart)
				if opErr != nil {
					if !isolate(opErr) {
						fail(opErr)
						return
					}
					continue
				}
				if op.Kind == workload.OpUpdate {
					updates.Add(1)
				} else {
					retrieves.Add(1)
				}
				lats = append(lats, opLat{kind: op.Kind, d: dur})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	// Versioned serving defers base-layout writes: after the clients
	// join, fold the newest version of every dirty object back through
	// the strategy's own in-place update path (db.Versions is nil while
	// draining, so st.Update takes the base route and the cache sweep
	// still runs). Drain time is reported separately from Elapsed — it is
	// reconciliation work outside the measured serving window.
	var (
		drained   int
		drainTime time.Duration
		txnStats  *txn.Stats
	)
	if cfg.Versioned {
		drainStart := time.Now()
		drained, err = db.DrainVersions(func(op workload.Op) error { return st.Update(db, op) })
		if err != nil {
			return nil, fmt.Errorf("serve: drain versions: %w", err)
		}
		drainTime = time.Since(drainStart)
		s := db.Versions.Stats()
		txnStats = &s
	}

	var all, retrLats, updLats []time.Duration
	perClient := make([]LatencySummary, cfg.Clients)
	for c, l := range latencies {
		cl := make([]time.Duration, 0, len(l))
		for _, ol := range l {
			cl = append(cl, ol.d)
			if ol.kind == workload.OpUpdate {
				updLats = append(updLats, ol.d)
			} else {
				retrLats = append(retrLats, ol.d)
			}
		}
		all = append(all, cl...)
		perClient[c] = summarize(cl)
	}
	res := &ServeResult{
		Clients:        cfg.Clients,
		Shards:         db.Pool.NumShards(),
		Retrieves:      int(retrieves.Load()),
		Updates:        int(updates.Load()),
		Elapsed:        elapsed,
		LatencySummary: summarize(all),
		PerOp: map[string]LatencySummary{
			"retrieve": summarize(retrLats),
			"update":   summarize(updLats),
		},
		PerClient:    perClient,
		TotalIO:      db.Disk.Stats().Total(),
		Failed:       int(failed.Load()),
		ErrorSamples: samples,
		Versioned:    cfg.Versioned,
		DrainApplied: drained,
		DrainTime:    drainTime,
		Txn:          txnStats,
	}
	if elapsed > 0 {
		res.QPS = float64(res.Retrieves+res.Updates) / elapsed.Seconds()
		res.RetrieveQPS = float64(res.Retrieves) / elapsed.Seconds()
		res.UpdateQPS = float64(res.Updates) / elapsed.Seconds()
	}
	return res, nil
}

// servePoint is one named configuration of a serving grid: what it
// changes about the grid's base configuration.
type servePoint struct {
	name string
	edit func(*ServeConfig)
}

// ServeRun is one point's outcome.
type ServeRun struct {
	Name string `json:"name"`
	*ServeResult
}

// ServeGrid is the outcome of serving every point of a grid from one
// base configuration — the payload of the throughput and txn sweeps.
// Every point rebuilds the same seeded database and sequence, so points
// that differ only in mode execute the identical operation stream.
type ServeGrid struct {
	Config   string     `json:"config"` // as provisioned for the strategy
	Strategy string     `json:"strategy"`
	Runs     []ServeRun `json:"runs"`
}

// serveGrid serves each point in turn.
func serveGrid(base ServeConfig, points []servePoint) (*ServeGrid, error) {
	g := &ServeGrid{
		Config:   provisionFor(base.Strategy, base.DB.WithDefaults()).String(),
		Strategy: base.Strategy.String(),
	}
	for _, pt := range points {
		cfg := base
		pt.edit(&cfg)
		res, err := Serve(cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: serving %s: %w", pt.name, err)
		}
		g.Runs = append(g.Runs, ServeRun{pt.name, res})
	}
	return g, nil
}

// Run returns the named point's result (nil when absent).
func (g *ServeGrid) Run(name string) *ServeResult {
	for _, r := range g.Runs {
		if r.Name == name {
			return r.ServeResult
		}
	}
	return nil
}

// Cells flattens the grid: one cell per point, under the point's name.
func (g *ServeGrid) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, r := range g.Runs {
		cells = append(cells, serveCell(r.Name, r.ServeResult))
	}
	return cells
}

// Check is empty for a plain serving grid: a failed operation aborts the
// run, and the clocks are held to the baseline, not to a gate.
func (g *ServeGrid) Check() []Violation { return nil }

// minBeyond is the k of "a percentile gates when the run has the samples
// to define it": at least k samples must lie beyond it, so p95 gates from
// 20k = 60 samples and p99 from 100k = 300. With fewer the "percentile"
// is one of the run's two or three largest samples — at 40 samples p99 is
// the runner-up and p95 the one after, and both moved by more than 50%
// between identical runs. Three is the smallest k that demotes those
// 40-sample cells (k = 2 still gates p95 at exactly 40) and nothing above
// 60 samples.
const minBeyond = 3

// metrics adds the distribution to a cell: each percentile gates
// (name_ns) when the run has the samples to define it and is
// informational (bare name, like max) otherwise.
func (s LatencySummary) metrics(m map[string]float64) {
	for _, p := range []struct {
		name string
		per  int // one sample in per lies beyond the percentile
		v    time.Duration
	}{{"p50", 2, s.P50}, {"p95", 20, s.P95}, {"p99", 100, s.P99}} {
		if s.Count >= p.per*minBeyond {
			m[p.name+"_ns"] = float64(p.v)
		} else {
			m[p.name] = float64(p.v)
		}
	}
	m["max"] = float64(s.Max)
}

// serveCell flattens one result into an envelope cell. QPS and the
// percentiles the run can define gate regressions; total_io is
// deterministic at one client and gates; failures gate. Versioned runs
// carry the split throughputs plus the txn counters as informational
// metrics ("snapshots", not "*_reads": the suffix rules in benchdiff
// would otherwise gate a counter lower-is-better).
func serveCell(name string, r *ServeResult) bench.Cell {
	c := bench.Cell{Name: name, Metrics: map[string]float64{
		"qps":      r.QPS,
		"total_io": float64(r.TotalIO),
		"failed":   float64(r.Failed),
	}}
	r.LatencySummary.metrics(c.Metrics)
	if r.Retrieves > 0 {
		c.Metrics["retrieve_qps"] = r.RetrieveQPS
	}
	if r.Updates > 0 {
		c.Metrics["update_qps"] = r.UpdateQPS
	}
	if r.Txn != nil {
		c.Metrics["versions_installed"] = float64(r.Txn.Installed)
		c.Metrics["snapshots"] = float64(r.Txn.Snapshots)
		c.Metrics["latch_waits"] = float64(r.Txn.Waited)
		c.Metrics["drain_applied"] = float64(r.DrainApplied)
	}
	return c
}

// serveBase is the throughput sweep's serving workload: DFS over 2,000
// parents with batched probes, 5% updates, 40 operations per client (10
// on the quick grid).
func serveBase(o SweepOpts) ServeConfig {
	return ServeConfig{
		DB:           workload.Config{NumParents: 2000, Seed: *o.Seed, ProbeBatch: true},
		Strategy:     strategy.DFS,
		OpsPerClient: pick(o, 40, 10),
		PrUpdate:     0.05,
		NumTop:       8,
		DiskLatency:  *o.Latency,
	}
}

// ThroughputBench is the result of a throughput sweep: for each client
// count, a lock-striped run and a single-shard (global-mutex-equivalent)
// baseline run of the identical workload.
type ThroughputBench struct {
	*ServeGrid
	Speedup map[string]float64 `json:"speedup_vs_baseline"`
}

// RunThroughput sweeps clientCounts with the given base configuration,
// running each point once with shards lock stripes and once with the
// single-shard baseline, and reports QPS speedups. The device latency
// (the sweep's default is 100µs per page transfer, roughly a fast NVMe
// random read) is what the pool stripes let concurrent clients overlap.
func RunThroughput(base ServeConfig, shards int, clientCounts []int) (*ThroughputBench, error) {
	var points []servePoint
	for _, k := range clientCounts {
		for _, mode := range []struct {
			name   string
			shards int
		}{{"sharded", shards}, {"baseline", 1}} {
			points = append(points, servePoint{fmt.Sprintf("%s/K=%d", mode.name, k), func(c *ServeConfig) {
				c.Clients, c.DB.PoolShards = k, mode.shards
			}})
		}
	}
	g, err := serveGrid(base, points)
	if err != nil {
		return nil, err
	}
	b := &ThroughputBench{ServeGrid: g, Speedup: make(map[string]float64)}
	for _, k := range clientCounts {
		key := fmt.Sprintf("K=%d", k)
		if baseline := g.Run("baseline/" + key); baseline.QPS > 0 {
			b.Speedup[key] = g.Run("sharded/"+key).QPS / baseline.QPS
		}
	}
	return b, nil
}

func throughputSweep(o SweepOpts) (Report, error) {
	return RunThroughput(serveBase(o), 8, pick(o, []int{1, 2, 4, 8}, []int{1, 2}))
}
