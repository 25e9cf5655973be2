package harness

import (
	"sync"
	"testing"
	"time"

	"corep/internal/buffer"
	"corep/internal/strategy"
	"corep/internal/testutil"
	"corep/internal/workload"
)

// prefetchKindConfig adapts cfg to what kind needs, the same shaping
// Serve applies: the caching strategies get a cache, DFSCLUST a
// clustered store.
func prefetchKindConfig(kind strategy.Kind, cfg workload.Config) workload.Config {
	switch kind {
	case strategy.DFSCACHE, strategy.SMART, strategy.DFSCACHEINSIDE:
		cfg.CacheUnits = workload.DefaultCacheUnits
		cfg.Clustered = false
	case strategy.DFSCLUST:
		cfg.Clustered = true
		cfg.CacheUnits = 0
	default:
		cfg.Clustered = false
		cfg.CacheUnits = 0
	}
	return cfg
}

// TestPrefetchEquivalence is the correctness property behind the whole
// subsystem: with prefetch on, every strategy must return bit-identical
// result rows and never read more pages than the synchronous path,
// across a grid of shapes (probe batches above and below BatchSortMin,
// leaf-merge scans, clustered fetches, cache hits).
func TestPrefetchEquivalence(t *testing.T) {
	const retrieves = 4
	for _, np := range []int{300} {
		for _, sf := range []int{1, 5} {
			for _, numTop := range []int{1, 20, 150} {
				for _, kind := range strategy.AllKinds {
					base := prefetchKindConfig(kind, workload.Config{
						NumParents: np,
						UseFactor:  sf,
						ProbeBatch: true,
						PoolShards: 4,
						Seed:       3,
					})
					_, offReads, offRows, offStats, err := runPrefetchMode(kind, base, retrieves, numTop, 0)
					if err != nil {
						t.Fatalf("%v np=%d sf=%d nt=%d off: %v", kind, np, sf, numTop, err)
					}
					if offStats != (buffer.PrefetchStats{}) {
						t.Fatalf("%v: prefetch counters moved with prefetch off: %+v", kind, offStats)
					}
					on := base
					on.PrefetchEnabled = true
					_, onReads, onRows, _, err := runPrefetchMode(kind, on, retrieves, numTop, 0)
					if err != nil {
						t.Fatalf("%v np=%d sf=%d nt=%d on: %v", kind, np, sf, numTop, err)
					}
					if onRows != offRows {
						t.Errorf("%v np=%d sf=%d nt=%d: rows diverged with prefetch on", kind, np, sf, numTop)
					}
					if onReads > offReads {
						t.Errorf("%v np=%d sf=%d nt=%d: prefetch reads %d > sync reads %d",
							kind, np, sf, numTop, onReads, offReads)
					}
				}
			}
		}
	}
}

// TestPrefetchShutdownRace hammers a prefetch-enabled database with
// concurrent retrieves (shared latch) and updates (exclusive latch, so
// cache I-lock invalidations fire) while the prefetcher is torn down
// mid-flight; run under -race. After Close the chains must be inert, no
// pin may leak, and retrieves must keep working synchronously.
func TestPrefetchShutdownRace(t *testing.T) {
	cfg := workload.Config{
		NumParents:      300,
		CacheUnits:      workload.DefaultCacheUnits,
		PoolShards:      4,
		ProbeBatch:      true,
		PrefetchEnabled: true,
		PrefetchDepth:   4,
		Seed:            5,
	}
	db, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer testutil.AssertNoLeaks(t, db.Pool)
	st, err := strategy.New(strategy.DFSCACHE, db)
	if err != nil {
		t.Fatal(err)
	}
	ops := db.GenSequence(80, 0.2, 20)
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	db.Disk.SetLatency(10 * time.Microsecond)
	defer db.Disk.SetLatency(0)

	const readers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ops); i += readers {
				op := ops[i]
				var err error
				if op.Kind == workload.OpUpdate {
					db.Latch.Lock()
					err = st.Update(db, op)
					db.Latch.Unlock()
				} else {
					db.Latch.RLock()
					_, err = st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
					db.Latch.RUnlock()
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	// Tear the prefetcher down in the middle of the storm.
	time.Sleep(2 * time.Millisecond)
	pf := db.Pool.Prefetcher()
	db.Pool.SetPrefetcher(nil)
	pf.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := db.Pool.PinnedCount(); n != 0 {
		t.Fatalf("pinned = %d after shutdown race", n)
	}
	// The database still serves synchronously.
	if _, err := st.Retrieve(db, strategy.Query{Lo: 1, Hi: 1}); err != nil {
		t.Fatalf("retrieve after prefetcher close: %v", err)
	}
}

// BenchmarkPrefetchSweep is CI's bench-smoke entry point: one pass over
// the full latency×depth grid per iteration, failing the run on any
// read-count or row divergence.
func BenchmarkPrefetchSweep(b *testing.B) {
	s, _ := FindSweep("prefetch")
	for i := 0; i < b.N; i++ {
		rep, err := s.Run(SweepOpts{})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range rep.Check() {
			b.Fatal(v)
		}
		b.ReportMetric(rep.(*PrefetchBench).BestSpeedup, "best-speedup")
	}
}
