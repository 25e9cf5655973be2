package harness

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/txn"
	"corep/internal/workload"
)

// SLO declares the serving latency objective: the Target quantile of
// per-operation wall-clock latency must stay at or under Threshold.
// Every operation at or over Threshold counts as one violation
// regardless of the quantile, so violation counts stay meaningful even
// when the objective itself is met.
type SLO struct {
	Target    float64       `json:"target"` // quantile the objective is stated at, e.g. 0.99
	Threshold time.Duration `json:"threshold_ns"`
}

// LatencySummary is one attribution cell's latency distribution: a
// client, an operation kind, or the whole run.
type LatencySummary struct {
	Count      int           `json:"count"`
	P50        time.Duration `json:"p50_ns"`
	P95        time.Duration `json:"p95_ns"`
	P99        time.Duration `json:"p99_ns"`
	Max        time.Duration `json:"max_ns"`
	Violations int           `json:"slo_violations,omitempty"`
}

// quantile reads the p-quantile off sorted latencies (the nearest-rank
// convention the serve tier has always used); 0 when there are none.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// summarize sorts lats in place and computes exact percentiles plus SLO
// violations.
func summarize(lats []time.Duration, slo *SLO) LatencySummary {
	slices.Sort(lats)
	s := LatencySummary{
		Count: len(lats),
		P50:   quantile(lats, 0.50), P95: quantile(lats, 0.95), P99: quantile(lats, 0.99), Max: quantile(lats, 1),
	}
	if slo != nil && slo.Threshold > 0 {
		i, _ := slices.BinarySearch(lats, slo.Threshold)
		s.Violations = len(lats) - i
	}
	return s
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

	// SLO, when non-nil, is the latency objective: per-cell summaries
	// count operations at or over Threshold, and the result reports
	// whether the Target quantile met it.
	SLO *SLO

	// Metrics, when non-nil, receives per-client and per-operation-kind
	// latency histograms plus live progress counters, all under
	// MetricsPrefix — the serving tier's cells in the shared registry.
	// Nil (the default) collects nothing and costs nothing on the op path.
	Metrics       *obs.Registry
	MetricsPrefix string

	// SlowLog, when non-nil, captures a root span (wall clock plus
	// disk/buffer counter deltas) for every operation and retains the
	// slowest — tail sampling for the serving tier. Because clients run
	// concurrently over shared counters, serve-tier deltas are
	// approximate attribution (see DESIGN.md §10); single-threaded
	// contexts (chaos harness, object API) capture exact per-op trees.
	SlowLog *obs.SlowLog
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
	// goroutine — the serve tier's SLO cells.
	LatencySummary
	PerOp     map[string]LatencySummary `json:"per_op,omitempty"`
	PerClient []LatencySummary          `json:"per_client,omitempty"`

	// SLO echoes the armed objective (Violations, in every summary,
	// counts operations at or over its threshold); SLOMet reports whether
	// the Target quantile stayed at or under the threshold.
	SLO    *SLO `json:"slo,omitempty"`
	SLOMet bool `json:"slo_met,omitempty"`

	// SlowRetained is how many span-carrying entries the slow log kept
	// (0 without a slow log).
	SlowRetained int `json:"slow_retained,omitempty"`

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

// Record exports the finished result into reg as metric points (gauges,
// nanosecond latencies, milli-QPS) so sinks flushing the registry see
// completed runs, not only the live histograms. Nil-safe on reg.
func (r *ServeResult) Record(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix + "serve.result.qps_milli").Set(int64(r.QPS * 1000))
	reg.Gauge(prefix + "serve.result.p50_ns").Set(int64(r.P50))
	reg.Gauge(prefix + "serve.result.p95_ns").Set(int64(r.P95))
	reg.Gauge(prefix + "serve.result.p99_ns").Set(int64(r.P99))
	reg.Gauge(prefix + "serve.result.max_ns").Set(int64(r.Max))
	reg.Gauge(prefix + "serve.result.total_io").Set(r.TotalIO)
	reg.Gauge(prefix + "serve.result.failed").Set(int64(r.Failed))
	reg.Gauge(prefix + "serve.result.slo_violations").Set(int64(r.Violations))
	if r.Txn != nil {
		reg.Gauge(prefix + "serve.result.txn.versions_installed").Set(r.Txn.Installed)
		reg.Gauge(prefix + "serve.result.txn.commits").Set(r.Txn.Commits)
		reg.Gauge(prefix + "serve.result.txn.aborts").Set(r.Txn.Aborts)
		reg.Gauge(prefix + "serve.result.txn.snapshots").Set(r.Txn.Snapshots)
		reg.Gauge(prefix + "serve.result.txn.overlay_hits").Set(r.Txn.Hits)
		reg.Gauge(prefix + "serve.result.txn.latch_waits").Set(r.Txn.Waited)
		reg.Gauge(prefix + "serve.result.txn.drain_applied").Set(int64(r.DrainApplied))
	}
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
	defer db.Close()
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

	// SLO instruments: one histogram per operation kind (shared across
	// clients), one per client, plus live progress counters. All are nil
	// no-ops when cfg.Metrics is nil, so the disabled op path is free.
	reg, prefix := cfg.Metrics, cfg.MetricsPrefix
	hRetr := reg.Histogram(prefix+"serve.op.retrieve.latency_ns", obs.LatencyBuckets)
	hUpd := reg.Histogram(prefix+"serve.op.update.latency_ns", obs.LatencyBuckets)
	cRetr := reg.Counter(prefix + "serve.ops.retrieves")
	cUpd := reg.Counter(prefix + "serve.ops.updates")
	cFail := reg.Counter(prefix + "serve.ops.failed")

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
		cFail.Add(1)
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
			hClient := reg.Histogram(prefix+"serve.client."+strconv.Itoa(c)+".latency_ns", obs.LatencyBuckets)
			lats := make([]opLat, 0, len(chunks[c]))
			defer func() { latencies[c] = lats }()
			for _, op := range chunks[c] {
				if stop.Load() {
					return
				}
				var ioBefore obs.IO
				if cfg.SlowLog != nil {
					ioBefore = db.IOSnapshot()
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
				if cfg.SlowLog != nil {
					d := db.IOSnapshot().Sub(ioBefore)
					name := "serve.retrieve"
					if op.Kind == workload.OpUpdate {
						name = "serve.update"
					}
					e := obs.SlowEntry{
						Name: name, Client: c, Start: opStart, Duration: dur,
						Spans: []obs.SpanEvent{{ID: 1, Name: name,
							Reads: d.Reads, Writes: d.Writes, IO: d.Reads + d.Writes,
							Hits: d.Hits, Misses: d.Misses, Flushes: d.Flushes}},
					}
					if opErr != nil {
						e.Err = opErr.Error()
					}
					cfg.SlowLog.Offer(e)
				}
				if opErr != nil {
					if !isolate(opErr) {
						fail(opErr)
						return
					}
					continue
				}
				switch op.Kind {
				case workload.OpRetrieve:
					retrieves.Add(1)
					cRetr.Add(1)
					hRetr.Observe(float64(dur))
				case workload.OpUpdate:
					updates.Add(1)
					cUpd.Add(1)
					hUpd.Observe(float64(dur))
				}
				hClient.Observe(float64(dur))
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
		perClient[c] = summarize(cl, cfg.SLO)
	}
	res := &ServeResult{
		Clients:        cfg.Clients,
		Shards:         db.Pool.NumShards(),
		Retrieves:      int(retrieves.Load()),
		Updates:        int(updates.Load()),
		Elapsed:        elapsed,
		LatencySummary: summarize(all, cfg.SLO),
		PerOp: map[string]LatencySummary{
			"retrieve": summarize(retrLats, cfg.SLO),
			"update":   summarize(updLats, cfg.SLO),
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
	if cfg.SLO != nil {
		slo := *cfg.SLO
		res.SLO = &slo
		res.SLOMet = len(all) > 0 && quantile(all, slo.Target) <= slo.Threshold
	}
	res.SlowRetained = cfg.SlowLog.Stats().Retained
	res.Record(reg, prefix)
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
// base configuration — the payload of the throughput, txn and slo
// sweeps. Every point rebuilds the same seeded database and sequence, so
// points that differ only in mode execute the identical operation stream.
type ServeGrid struct {
	Config   string     `json:"config"` // as provisioned for the strategy
	Strategy string     `json:"strategy"`
	Runs     []ServeRun `json:"runs"`
}

// serveGrid serves each point in turn. base.Metrics, when set, collects
// each point's latency histograms under a "<point name>." prefix.
func serveGrid(base ServeConfig, points []servePoint) (*ServeGrid, error) {
	g := &ServeGrid{
		Config:   provisionFor(base.Strategy, base.DB.WithDefaults()).String(),
		Strategy: base.Strategy.String(),
	}
	for _, pt := range points {
		cfg := base
		cfg.MetricsPrefix = base.MetricsPrefix + pt.name + "."
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

// serveBase is the serving workload the throughput and slo sweeps share:
// DFS over 2,000 parents with batched probes, 5% updates, 40 operations
// per client (10 on the quick grid).
func serveBase(o SweepOpts) ServeConfig {
	return ServeConfig{
		DB:           workload.Config{NumParents: 2000, Seed: *o.Seed, ProbeBatch: true},
		Strategy:     strategy.DFS,
		OpsPerClient: pick(o, 40, 10),
		PrUpdate:     0.05,
		NumTop:       8,
		DiskLatency:  *o.Latency,
		Metrics:      o.Metrics,
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

// SLOBench is the tail-latency serving benchmark (BENCH_slo.json): one
// Serve run with an SLO armed and the slow log capturing span-attributed
// outliers, reported as per-op-kind and per-client percentile cells.
type SLOBench struct {
	*ServeGrid                  // the one run, named "total"
	SLO         SLO             `json:"slo"`
	SlowQueries []obs.SlowEntry `json:"slow_queries,omitempty"`
}

// RunSLO runs one SLO-instrumented serve: metrics registry and slow log
// armed (cfg.Metrics/cfg.SlowLog are created when nil).
func RunSLO(cfg ServeConfig) (*SLOBench, error) {
	if cfg.SLO == nil {
		return nil, fmt.Errorf("harness: RunSLO needs an objective (ServeConfig.SLO)")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.SlowLog == nil {
		cfg.SlowLog = obs.NewSlowLog(obs.DefaultSlowLogSize, cfg.SLO.Threshold)
	}
	g, err := serveGrid(cfg, []servePoint{{"total", func(*ServeConfig) {}}})
	if err != nil {
		return nil, err
	}
	return &SLOBench{ServeGrid: g, SLO: *cfg.SLO, SlowQueries: cfg.SlowLog.Snapshot()}, nil
}

// sloSweep holds the serving workload at 8 clients (4 on the quick grid)
// to p99 <= 1s. The threshold is deliberately far above the ~200ms the
// run measures: the objective's violation count is a lower-better metric
// whose baseline is zero, and 0→N regresses at any benchdiff threshold,
// so a scheduler stall on a shared runner must not be able to conjure
// one.
func sloSweep(o SweepOpts) (Report, error) {
	cfg := serveBase(o)
	cfg.DB.PoolShards = 8
	cfg.Clients = pick(o, 8, 4)
	cfg.SLO = &SLO{Target: 0.99, Threshold: time.Second}
	return RunSLO(cfg)
}

// Cells flattens the run: one total cell plus one per operation kind.
func (b *SLOBench) Cells() []bench.Cell {
	total := b.Run("total")
	cells := b.ServeGrid.Cells()
	cells[0].Metrics["slo_violations"] = float64(total.Violations)
	cells[0].Metrics["slo_met"] = 0
	if total.SLOMet {
		cells[0].Metrics["slo_met"] = 1
	}
	for _, kind := range []string{"retrieve", "update"} {
		s := total.PerOp[kind]
		if s.Count == 0 {
			continue
		}
		m := map[string]float64{"count": float64(s.Count)}
		s.metrics(m)
		cells = append(cells, bench.Cell{Name: "op/" + kind, Metrics: m})
	}
	return cells
}

// Check reports a missed objective.
func (b *SLOBench) Check() []Violation {
	if total := b.Run("total"); !total.SLOMet {
		return []Violation{gate("total", "objective p%g <= %s missed (%d ops at or over the threshold)",
			b.SLO.Target*100, b.SLO.Threshold, total.Violations)}
	}
	return nil
}
