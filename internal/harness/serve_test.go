package harness

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/testutil"
	"corep/internal/workload"
)

func TestServeSmoke(t *testing.T) {
	res, err := Serve(ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 3, ProbeBatch: true, PoolShards: 4},
		Strategy:     strategy.DFS,
		Clients:      4,
		OpsPerClient: 6,
		PrUpdate:     0.2,
		NumTop:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retrieves != 4*6 {
		t.Fatalf("retrieves = %d, want %d", res.Retrieves, 4*6)
	}
	if res.Updates == 0 {
		t.Fatal("no updates ran despite PrUpdate=0.2")
	}
	if res.QPS <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Shards != 4 {
		t.Fatalf("shards = %d", res.Shards)
	}
	if res.P50 > res.P99 || res.P99 > res.Max {
		t.Fatalf("percentiles not ordered: p50=%s p99=%s max=%s", res.P50, res.P99, res.Max)
	}
}

func TestServeSingleClientMatchesSequentialIO(t *testing.T) {
	// One client under the latch must cost exactly the same simulated I/O
	// as the single-threaded harness run of the same sequence.
	cfg := workload.Config{NumParents: 300, Seed: 7}
	m, err := Run(RunConfig{DB: cfg, Strategy: strategy.DFS, NumRetrieves: 10, NumTop: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(ServeConfig{DB: cfg, Strategy: strategy.DFS, Clients: 1, OpsPerClient: 10, NumTop: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(m.AvgIO*10 + 0.5)
	if res.TotalIO != want {
		t.Fatalf("serve I/O = %d, sequential harness = %d", res.TotalIO, want)
	}
}

func TestRunThroughputSweep(t *testing.T) {
	base := ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 1, ProbeBatch: true},
		Strategy:     strategy.DFS,
		OpsPerClient: 4,
		NumTop:       3,
		DiskLatency:  time.Microsecond,
	}
	bench, err := RunThroughput(base, 4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Runs) != 4 {
		t.Fatalf("sweep size: %d runs, want 2 sharded + 2 baseline", len(bench.Runs))
	}
	if s, b := bench.Run("sharded/K=1").Shards, bench.Run("baseline/K=1").Shards; s != 4 || b != 1 {
		t.Fatalf("shard counts: %d vs %d", s, b)
	}
	if len(bench.Speedup) != 2 {
		t.Fatalf("speedups = %v", bench.Speedup)
	}
	// Identical workload either side: the simulated I/O must agree.
	for _, r := range bench.Runs {
		if r.TotalIO == 0 {
			t.Fatalf("no I/O measured at %s", r.Name)
		}
	}
}

// TestServeRaceStress is the -race proof for the concurrent serving
// path: readers retrieve through the cache-backed strategy (inserting
// units on miss) while updaters invalidate cached units through the
// I-lock protocol, all under the database latch. Afterwards the cache's
// unit↔I-lock cross-references must still be consistent.
func TestServeRaceStress(t *testing.T) {
	cfg := workload.Config{
		NumParents: 300,
		Seed:       11,
		CacheUnits: workload.DefaultCacheUnits,
		PoolShards: 8,
		ProbeBatch: true,
	}
	db, err := workload.Build(cfg.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer testutil.AssertNoLeaks(t, db.Pool)
	st, err := strategy.New(strategy.DFSCACHE, db)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	ops := db.GenSequence(clients*8, 0.4, 6)
	chunks := make([][]workload.Op, clients)
	for i, op := range ops {
		chunks[i%clients] = append(chunks[i%clients], op)
	}
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, op := range chunks[c] {
				switch op.Kind {
				case workload.OpRetrieve:
					db.Latch.RLock()
					_, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
					db.Latch.RUnlock()
					if err != nil {
						errc <- err
						return
					}
				case workload.OpUpdate:
					db.Latch.Lock()
					err := st.Update(db, op)
					db.Latch.Unlock()
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := db.Cache.CheckInvariants(); err != nil {
		t.Fatalf("cache inconsistent after concurrent serving: %v", err)
	}
	if db.Cache.Stats().Inserts == 0 {
		t.Fatal("stress never exercised the cache")
	}
	if db.Pool.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", db.Pool.PinnedCount())
	}
}

// TestProbeBatchNeverCostsMore asserts the acceptance bound for the
// batched probe path over the (strategy, use factor, NumTop) cells of
// the Figure 3–7 families. The figure experiments themselves run with
// ProbeBatch=false, so their I/O is bit-identical to the seed by
// construction; this test additionally checks the opt-in batched mode:
// per-query simulated I/O must be unchanged or improved in every cell,
// up to reordering noise (sorting probes perturbs the LRU eviction
// sequence, which can shift a warm-pool cell by a page or two in either
// direction — the clustered build is itself nondeterministic at that
// magnitude), and must improve substantially where batching matters
// (depth-first probing at high NumTop).
func TestProbeBatchNeverCostsMore(t *testing.T) {
	kinds := []strategy.Kind{strategy.DFS, strategy.BFS, strategy.DFSCACHE, strategy.DFSCLUST, strategy.SMART}
	for _, np := range []int{300, 2000} {
		for _, sf := range []int{1, 5} {
			for _, numTop := range []int{1, 20, 150, 1000} {
				if numTop > np {
					continue
				}
				for _, k := range kinds {
					cfg := RunConfig{
						DB:           workload.Config{NumParents: np, UseFactor: sf, Seed: 2},
						Strategy:     k,
						NumRetrieves: 6,
						NumTop:       numTop,
					}
					paper, err := Run(cfg)
					if err != nil {
						t.Fatalf("%v np=%d sf=%d nt=%d (paper): %v", k, np, sf, numTop, err)
					}
					cfg.DB.ProbeBatch = true
					batched, err := Run(cfg)
					if err != nil {
						t.Fatalf("%v np=%d sf=%d nt=%d (batched): %v", k, np, sf, numTop, err)
					}
					if batched.AvgIO > paper.AvgIO*1.01+1.0 {
						t.Errorf("%v np=%d sf=%d nt=%d: batched %.2f > paper %.2f I/O per query",
							k, np, sf, numTop, batched.AvgIO, paper.AvgIO)
					}
				}
			}
		}
	}

	// Where batching is the point — depth-first probing of many children
	// through a pool-sized working set — it must win big, not just tie.
	cfg := RunConfig{
		DB:           workload.Config{NumParents: 2000, UseFactor: 1, Seed: 2},
		Strategy:     strategy.DFS,
		NumRetrieves: 6,
		NumTop:       1000,
	}
	paper, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DB.ProbeBatch = true
	batched, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batched.AvgIO > paper.AvgIO/2 {
		t.Errorf("DFS nt=1000: batched %.2f vs paper %.2f — expected at least 2x I/O reduction",
			batched.AvgIO, paper.AvgIO)
	}
}

// TestServeIsolatesFaultedQueries runs the concurrent server under a
// hostile fault plan: with IsolateErrors each failed operation costs
// one client one op, without it the first failure cancels the run.
func TestServeIsolatesFaultedQueries(t *testing.T) {
	plan := disk.FaultPlanConfig{
		Seed:         7,
		PTransient:   0.02, // beyond the retry budget often enough to surface
		TransientLen: 5,
		PPermanent:   0.005,
	}
	cfg := ServeConfig{
		DB:            workload.Config{NumParents: 300, Seed: 3, ProbeBatch: true, PoolShards: 4},
		Strategy:      strategy.DFSCACHE,
		Clients:       4,
		OpsPerClient:  12,
		PrUpdate:      0.2,
		NumTop:        6,
		IsolateErrors: true,
		FaultPlan:     &plan,
	}
	res, err := Serve(cfg)
	if err != nil {
		t.Fatalf("isolated serve aborted: %v", err)
	}
	if res.Failed == 0 {
		t.Fatal("fault plan injected nothing — isolation untested (raise rates)")
	}
	// GenSequence emits Clients*OpsPerClient retrieves plus interleaved
	// updates; every generated op must land in exactly one bucket.
	if res.Retrieves+res.Updates+res.Failed < cfg.Clients*cfg.OpsPerClient {
		t.Fatalf("ops lost: %d ok + %d failed < %d retrieves issued",
			res.Retrieves+res.Updates, res.Failed, cfg.Clients*cfg.OpsPerClient)
	}
	if len(res.ErrorSamples) == 0 {
		t.Fatal("no error samples recorded")
	}

	// Fail-fast path: same plan, no isolation — the run must abort with
	// an attributed error.
	cfg.IsolateErrors = false
	if _, err := Serve(cfg); !disk.IsFault(err) {
		t.Fatalf("fail-fast serve returned %v, want attributed fault", err)
	}
}

// TestServeSLOAndHistograms arms every new serving instrument at once —
// SLO accounting, per-op/per-client histograms, slow-log tail sampling —
// and checks each cell is populated and internally consistent.
func TestServeSLOAndHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	slo := SLO{Target: 0.99, Threshold: time.Nanosecond} // everything violates
	sl := obs.NewSlowLog(8, slo.Threshold)
	res, err := Serve(ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 3, ProbeBatch: true, PoolShards: 4},
		Strategy:     strategy.DFS,
		Clients:      4,
		OpsPerClient: 6,
		PrUpdate:     0.2,
		NumTop:       5,
		SLO:          &slo,
		Metrics:      reg,
		SlowLog:      sl,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Retrieves + res.Updates
	if res.SLO == nil || *res.SLO != slo {
		t.Fatalf("SLO not echoed: %+v", res.SLO)
	}
	if res.Violations != total {
		t.Fatalf("violations = %d, want every op (%d) at 1ns threshold", res.Violations, total)
	}
	if res.SLOMet {
		t.Fatal("SLO reported met at 1ns threshold")
	}
	if res.P95 < res.P50 || res.P95 > res.P99 {
		t.Fatalf("p95 out of order: p50=%s p95=%s p99=%s", res.P50, res.P95, res.P99)
	}

	// Per-op cells: counts must partition the total.
	retr, upd := res.PerOp["retrieve"], res.PerOp["update"]
	if retr.Count != res.Retrieves || upd.Count != res.Updates {
		t.Fatalf("per-op counts %d/%d, want %d/%d", retr.Count, upd.Count, res.Retrieves, res.Updates)
	}
	if retr.Violations+upd.Violations != total {
		t.Fatalf("per-op violations don't partition: %d + %d != %d", retr.Violations, upd.Violations, total)
	}
	// Per-client cells: one per client, counts summing to the total.
	if len(res.PerClient) != 4 {
		t.Fatalf("per-client cells = %d", len(res.PerClient))
	}
	sum := 0
	for _, c := range res.PerClient {
		sum += c.Count
	}
	if sum != total {
		t.Fatalf("per-client counts sum %d, want %d", sum, total)
	}

	// Registry histograms: the per-op histograms must have observed every
	// successful op, and quantiles must be sane.
	hr := reg.Histogram("serve.op.retrieve.latency_ns", nil).Snapshot()
	if hr.Count != int64(res.Retrieves) {
		t.Fatalf("retrieve histogram count %d, want %d", hr.Count, res.Retrieves)
	}
	if q := hr.Quantile(0.5); q < hr.Min || q > hr.Max {
		t.Fatalf("histogram p50 %v outside [%v, %v]", q, hr.Min, hr.Max)
	}
	if hu := reg.Histogram("serve.op.update.latency_ns", nil).Snapshot(); hu.Count != int64(res.Updates) {
		t.Fatal("update histogram incomplete")
	}
	// Progress counters for live -watch.
	pts := map[string]int64{}
	for _, p := range reg.Points() {
		pts[p.Name] = p.Value
	}
	if pts["serve.ops.retrieves"] != int64(res.Retrieves) || pts["serve.ops.updates"] != int64(res.Updates) {
		t.Fatalf("progress counters %d/%d, want %d/%d",
			pts["serve.ops.retrieves"], pts["serve.ops.updates"], res.Retrieves, res.Updates)
	}
	// Result export (satellite: sinks see finished runs).
	if pts["serve.result.p99_ns"] != int64(res.P99) || pts["serve.result.slo_violations"] != int64(total) {
		t.Fatal("ServeResult.Record did not export the finished run")
	}

	// Slow log: every op violated, so the ring must be full with the
	// slowest ops, each carrying a root span with I/O attribution.
	st := sl.Stats()
	if st.Retained != 8 || res.SlowRetained != 8 {
		t.Fatalf("slow log retained %d/%d, want full ring", st.Retained, res.SlowRetained)
	}
	if st.Observed != int64(total) || st.Violations != int64(total) {
		t.Fatalf("slow log observed=%d violations=%d, want %d", st.Observed, st.Violations, total)
	}
	entries := sl.Snapshot()
	var sawIO bool
	for _, e := range entries {
		if len(e.Spans) != 1 || !e.OverSLO {
			t.Fatalf("malformed slow entry: %+v", e)
		}
		if e.IO() > 0 {
			sawIO = true
		}
	}
	if !sawIO {
		t.Fatal("no slow entry attributed any disk reads")
	}
	// Retained entries are the slowest observed: none retained may be
	// faster than the run's own p50 floor of what was dropped... at
	// minimum they must be sorted slowest-first.
	for i := 1; i < len(entries); i++ {
		if entries[i].Duration > entries[i-1].Duration {
			t.Fatal("slow log snapshot not sorted slowest-first")
		}
	}
}

// TestServeDisabledPathUnchanged: with no registry/slow-log/SLO armed the
// result must carry no observability residue, and the serve I/O must be
// identical to an armed run — instrumentation must not change behaviour.
func TestServeDisabledPathUnchanged(t *testing.T) {
	cfg := ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 9, ProbeBatch: true, PoolShards: 4},
		Strategy:     strategy.DFS,
		Clients:      1, // single client: deterministic I/O either way
		OpsPerClient: 8,
		NumTop:       4,
	}
	plain, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SLO != nil || plain.Violations != 0 || plain.SlowRetained != 0 {
		t.Fatalf("disabled run carries SLO residue: %+v", plain)
	}
	cfg.SLO = &SLO{Target: 0.99, Threshold: 250 * time.Millisecond}
	cfg.Metrics = obs.NewRegistry()
	cfg.SlowLog = obs.NewSlowLog(4, 0)
	armed, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.TotalIO != plain.TotalIO {
		t.Fatalf("instrumentation changed I/O: %d vs %d", armed.TotalIO, plain.TotalIO)
	}
}

// TestRunSLOBench exercises the BENCH_slo.json producer end to end:
// envelope kind, cells, and captured slow queries.
func TestRunSLOBench(t *testing.T) {
	b, err := RunSLO(ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 5, ProbeBatch: true, PoolShards: 4},
		Strategy:     strategy.DFSCACHE,
		Clients:      4,
		OpsPerClient: 5,
		PrUpdate:     0.2,
		NumTop:       4,
		SLO:          &SLO{Target: 0.99, Threshold: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Run("total") == nil || len(b.SlowQueries) == 0 {
		t.Fatalf("SLO bench missing result or slow queries: %+v", b)
	}
	if len(b.Check()) != 1 {
		t.Fatalf("1ns SLO passed its gate: %v", b.Check())
	}
	slo, _ := FindSweep("slo")
	var buf bytes.Buffer
	if err := slo.Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	env, err := bench.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "slo" {
		t.Fatalf("kind = %q", env.Kind)
	}
	tc := env.Cell("total")
	if tc == nil || tc.Metrics["qps"] <= 0 {
		t.Fatalf("total cell missing or empty: %+v", env.Cells)
	}
	if tc.Metrics["slo_met"] != 0 {
		t.Fatal("1ns SLO reported met")
	}
	if env.Cell("op/retrieve") == nil {
		t.Fatal("retrieve op cell missing")
	}
}

// TestThroughputEnvelope: the throughput artifact must now be a
// versioned envelope with per-(mode, K) cells.
func TestThroughputEnvelope(t *testing.T) {
	base := ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 1, ProbeBatch: true},
		Strategy:     strategy.DFS,
		OpsPerClient: 4,
		NumTop:       3,
		DiskLatency:  time.Microsecond,
	}
	b, err := RunThroughput(base, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	throughput, _ := FindSweep("throughput")
	var buf bytes.Buffer
	if err := throughput.Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	env, err := bench.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "throughput" || env.Cell("sharded/K=2") == nil || env.Cell("baseline/K=2") == nil {
		t.Fatalf("envelope cells wrong: %+v", env.Cells)
	}
	// Payload must still decode as the native bench for human readers.
	var native ThroughputBench
	if err := json.Unmarshal(env.Payload, &native); err != nil {
		t.Fatal(err)
	}
	if len(native.Runs) != 2 || native.Run("sharded/K=2").QPS <= 0 || native.Speedup["K=2"] <= 0 {
		t.Fatalf("payload lost native results: %+v", native)
	}
}

// TestPercentilesGateOnlyWithSamples: a percentile carries the gated _ns
// name only from 20·minBeyond (p95) and 100·minBeyond (p99) samples on;
// below that it is informational like max. The 40-sample K=1 cells are
// the ones whose p95 and p99 flaked bench-trend.
func TestPercentilesGateOnlyWithSamples(t *testing.T) {
	for _, tc := range []struct {
		count int
		gated []string
		info  []string
	}{
		{5, nil, []string{"p50", "p95", "p99"}},
		{40, []string{"p50_ns"}, []string{"p95", "p99"}},
		{59, []string{"p50_ns"}, []string{"p95", "p99"}},
		{60, []string{"p50_ns", "p95_ns"}, []string{"p99"}},
		{299, []string{"p50_ns", "p95_ns"}, []string{"p99"}},
		{300, []string{"p50_ns", "p95_ns", "p99_ns"}, nil},
	} {
		m := map[string]float64{}
		LatencySummary{Count: tc.count, P50: 1, P95: 2, P99: 3, Max: 4}.metrics(m)
		for _, name := range append(tc.gated, tc.info...) {
			if _, ok := m[name]; !ok {
				t.Errorf("%d samples: no %s in %v", tc.count, name, m)
			}
		}
		if want := len(tc.gated) + len(tc.info) + 1; len(m) != want || m["max"] != 4 {
			t.Errorf("%d samples: %v, want %d metrics with max", tc.count, m, want)
		}
		for _, name := range tc.info {
			if bench.MetricDirection(name) != bench.Info {
				t.Errorf("%s would gate", name)
			}
		}
	}
}
