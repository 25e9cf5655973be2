package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"corep/internal/strategy"
	"corep/internal/testutil"
	"corep/internal/workload"
)

// runSequenceRows drives one pre-built database through ops serially and
// returns every retrieve's values plus a final full-range read taken
// after the run (and, when versioned, after the drain) — the per-op and
// end-state fingerprints the differential test compares.
func runSequenceRows(t *testing.T, db *workload.DB, st strategy.Strategy, ops []workload.Op, versioned bool) ([][]int64, []int64) {
	t.Helper()
	if versioned {
		db.EnableVersioning()
	}
	var rows [][]int64
	for i, op := range ops {
		switch op.Kind {
		case workload.OpRetrieve:
			q := strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}
			if versioned {
				snap := db.Versions.Begin()
				q.Snap = snap
				res, err := st.Retrieve(db, q)
				snap.Release()
				if err != nil {
					t.Fatalf("op %d versioned retrieve: %v", i, err)
				}
				rows = append(rows, res.Values)
			} else {
				res, err := st.Retrieve(db, q)
				if err != nil {
					t.Fatalf("op %d retrieve: %v", i, err)
				}
				rows = append(rows, res.Values)
			}
		case workload.OpUpdate:
			if err := st.Update(db, op); err != nil {
				t.Fatalf("op %d update: %v", i, err)
			}
		}
	}
	if versioned {
		if _, err := db.DrainVersions(func(op workload.Op) error { return st.Update(db, op) }); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	res, err := st.Retrieve(db, strategy.Query{Lo: 0, Hi: int64(db.Cfg.NumParents - 1), AttrIdx: workload.FieldRet1})
	if err != nil {
		t.Fatalf("final full-range retrieve: %v", err)
	}
	return rows, res.Values
}

// TestVersionedDifferentialAllStrategies is the correctness anchor for
// versioned serving: for every strategy, the identical op sequence run
// once through the historic in-place path and once through snapshots +
// version store + drain must return the same rows per retrieve and
// leave the base layout (read snapshot-free) in the same end state.
func TestVersionedDifferentialAllStrategies(t *testing.T) {
	for _, kind := range strategy.AllKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := provisionFor(kind, workload.Config{NumParents: 300, Seed: 21, ProbeBatch: true}.WithDefaults())
			build := func() (*workload.DB, strategy.Strategy, []workload.Op) {
				db, err := workload.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := strategy.New(kind, db)
				if err != nil {
					db.Close()
					t.Fatal(err)
				}
				ops := db.GenSequence(40, 0.4, 6)
				if err := db.ResetCold(); err != nil {
					db.Close()
					t.Fatal(err)
				}
				return db, st, ops
			}
			dbA, stA, opsA := build()
			defer dbA.Close()
			baseRows, baseFinal := runSequenceRows(t, dbA, stA, opsA, false)

			dbB, stB, opsB := build()
			defer dbB.Close()
			if len(opsA) != len(opsB) {
				t.Fatalf("sequence regeneration diverged: %d vs %d ops", len(opsA), len(opsB))
			}
			verRows, verFinal := runSequenceRows(t, dbB, stB, opsB, true)

			if len(baseRows) != len(verRows) {
				t.Fatalf("retrieve count differs: %d vs %d", len(baseRows), len(verRows))
			}
			for i := range baseRows {
				if !slices.Equal(baseRows[i], verRows[i]) {
					t.Fatalf("retrieve %d rows differ: base %v, versioned %v", i, baseRows[i], verRows[i])
				}
			}
			if !slices.Equal(baseFinal, verFinal) {
				t.Fatalf("post-drain base layout differs (%d vs %d values)", len(baseFinal), len(verFinal))
			}
			testutil.AssertNoLeaks(t, dbB.Pool)
		})
	}
}

// TestServeVersionedConcurrent runs the versioned serving path with 8
// clients under the race detector and checks the txn accounting: every
// update op is one commit (plus the bootstrap epoch), nothing aborts,
// and the drain folds the dirty objects back after the clients join.
func TestServeVersionedConcurrent(t *testing.T) {
	res, err := Serve(ServeConfig{
		DB:           workload.Config{NumParents: 300, Seed: 3, ProbeBatch: true, PoolShards: 4, ZipfTheta: 0.9},
		Strategy:     strategy.DFSCACHE,
		Clients:      8,
		OpsPerClient: 12,
		PrUpdate:     0.4,
		NumTop:       5,
		Versioned:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Versioned || res.Txn == nil {
		t.Fatalf("versioned run did not report txn stats: %+v", res)
	}
	if res.Updates == 0 {
		t.Fatal("no updates ran despite PrUpdate=0.4")
	}
	if res.Txn.Commits != int64(res.Updates)+1 {
		t.Fatalf("commits = %d, want %d updates + 1 bootstrap", res.Txn.Commits, res.Updates)
	}
	if res.Txn.Aborts != 0 || res.Failed != 0 {
		t.Fatalf("aborts=%d failed=%d, want 0/0", res.Txn.Aborts, res.Failed)
	}
	if res.DrainApplied == 0 || res.Txn.Pending != 0 {
		t.Fatalf("drain applied %d, pending %d", res.DrainApplied, res.Txn.Pending)
	}
	if res.Txn.Snapshots < int64(res.Retrieves) {
		t.Fatalf("snapshots = %d < retrieves = %d", res.Txn.Snapshots, res.Retrieves)
	}
	if res.RetrieveQPS <= 0 || res.UpdateQPS <= 0 {
		t.Fatalf("split throughput degenerate: retr=%.1f upd=%.1f", res.RetrieveQPS, res.UpdateQPS)
	}
}

// TestServeVersionedRetrieveScaling is the lenient in-tree cousin of the
// BENCH_txn.json acceptance claim (retrieve throughput at 8 clients
// degrades ≤ 15% when updates join): with device latency dominating and
// no global latch, adding an update-heavy mix must not halve the
// versioned retrieve throughput. The strict bound is gated in CI via
// benchdiff on the committed envelope, not here, to keep the unit test
// robust on loaded machines.
func TestServeVersionedRetrieveScaling(t *testing.T) {
	base := ServeConfig{
		DB:           workload.Config{NumParents: 500, Seed: 9, ProbeBatch: true, PoolShards: 8},
		Strategy:     strategy.DFSCACHE,
		Clients:      8,
		OpsPerClient: 20,
		NumTop:       6,
		DiskLatency:  100 * time.Microsecond,
		Versioned:    true,
	}
	readOnly := base
	readOnly.PrUpdate = 0
	ro, err := Serve(readOnly)
	if err != nil {
		t.Fatal(err)
	}
	mixed := base
	mixed.PrUpdate = 0.4
	mx, err := Serve(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if ro.RetrieveQPS <= 0 || mx.RetrieveQPS <= 0 {
		t.Fatalf("degenerate throughput: ro=%.1f mixed=%.1f", ro.RetrieveQPS, mx.RetrieveQPS)
	}
	if ratio := mx.RetrieveQPS / ro.RetrieveQPS; ratio < 0.5 {
		t.Fatalf("retrieve throughput collapsed under updates: %.2fx of read-only (%.1f vs %.1f qps)",
			ratio, mx.RetrieveQPS, ro.RetrieveQPS)
	}
}

// TestTxnChaosNoTornVersions hammers the version store with concurrent
// updaters and snapshot auditors: zero torn or lost versions, a clean
// drain, and correct post-drain reads for a cached and an uncached
// strategy — both fault-free and with the default fault mix injected
// under the auditors' base-page reads.
func TestTxnChaosNoTornVersions(t *testing.T) {
	for _, kind := range []strategy.Kind{strategy.DFS, strategy.DFSCACHE} {
		kind := kind
		for _, faulted := range []bool{false, true} {
			faulted := faulted
			name := kind.String() + "/clean"
			if faulted {
				name = kind.String() + "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				cfg := ChaosConfig{
					DB:                 workload.Config{NumParents: 400, Seed: 42, ProbeBatch: true, PoolShards: 4},
					Ops:                40,
					ConcurrentUpdaters: 3,
				}
				if faulted {
					full := chaosGrid(gridOf(t, "chaos", false))
					cfg.Plan, cfg.FaultSeed = full.Plan, full.FaultSeed
				}
				violations, err := RunTxnChaos(cfg, kind)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range violations {
					t.Errorf("violation: %s", v)
				}
			})
		}
	}
}

// TestRunTxnSweepSmoke runs a tiny grid end to end and checks the
// envelope shape: paired versioned/latched cells per point, split
// throughput metrics present, and txn info counters only on the
// versioned side.
func TestRunTxnSweepSmoke(t *testing.T) {
	cfg := TxnSweepConfig{
		Base: ServeConfig{
			DB:           workload.Config{NumParents: 300, Seed: 3, ProbeBatch: true, PoolShards: 4},
			Strategy:     strategy.DFSCACHE,
			OpsPerClient: 6,
			NumTop:       5,
		},
		Thetas:  []float64{0, 0.9},
		Updates: []float64{0.3},
		Clients: []int{1, 2},
	}
	b, err := RunTxnSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := b.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	for _, c := range cells {
		if c.Metrics["qps"] <= 0 {
			t.Fatalf("cell %s has no throughput", c.Name)
		}
		if _, ok := c.Metrics["retrieve_qps"]; !ok {
			t.Fatalf("cell %s missing retrieve_qps", c.Name)
		}
	}
	for _, r := range b.Runs {
		versioned := strings.HasPrefix(r.Name, "versioned/")
		if versioned != (r.Txn != nil) {
			t.Fatalf("txn stats on the wrong side at %s", r.Name)
		}
		if versioned && r.Txn.Commits != int64(r.Updates)+1 {
			t.Fatalf("%s commits = %d, want %d+1", r.Name, r.Txn.Commits, r.Updates)
		}
	}
	if b.Run("versioned/z0.9/u0.3/K=2") == nil || b.Run("latched/z0/u0.3/K=1") == nil {
		t.Fatalf("points are not paired per (theta, update rate, clients): %+v", cells)
	}
}
