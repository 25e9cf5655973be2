package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"corep/internal/bench"
	"corep/internal/buffer"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// This file is the prefetch benchmark: a latency×depth sweep comparing
// the asynchronous prefetch pipeline against the synchronous path on an
// identical workload (BENCH_prefetch.json). The workload is BFS on its
// batched iterative-substitution path — each retrieve probes its temp's
// OIDs through btree.GetBatch, whose leaf plan is exactly what the
// prefetcher overlaps — with a pool big enough to hold the working set,
// so page-read counts are structurally identical between modes and the
// comparison isolates wall-clock overlap.

// PrefetchCell is one (latency, depth) point of the sweep.
type PrefetchCell struct {
	Latency time.Duration `json:"latency_ns"`
	Depth   int           `json:"depth"`

	SyncElapsed time.Duration `json:"sync_elapsed_ns"`
	PrefElapsed time.Duration `json:"prefetch_elapsed_ns"`
	// Speedup is SyncElapsed / PrefElapsed (higher is better).
	Speedup float64 `json:"speedup"`

	SyncReads int64 `json:"sync_reads"`
	PrefReads int64 `json:"prefetch_reads"`

	// RowsMatch confirms both modes returned bit-identical result rows.
	RowsMatch bool `json:"rows_match"`

	Prefetch buffer.PrefetchStats `json:"prefetch_stats"`
}

// PrefetchBench is the sweep's result.
type PrefetchBench struct {
	Config   string          `json:"config"`
	Strategy string          `json:"strategy"`
	Points   []*PrefetchCell `json:"cells"`
	// BestSpeedup is the largest per-cell speedup observed.
	BestSpeedup float64 `json:"best_speedup"`
}

// Cells flattens the sweep for the versioned envelope. Read counts are
// deterministic and gate exactly; the speedup is a ratio of two wall
// clocks and goes out under a name bench.MetricDirection reports as
// informational, like the wasted/dropped prefetches (they vary with
// scheduling).
func (b *PrefetchBench) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, c := range b.Points {
		rowsFailed := 0.0
		if !c.RowsMatch {
			rowsFailed = 1
		}
		cells = append(cells, bench.Cell{
			Name: c.name(),
			Metrics: map[string]float64{
				"wall_speedup":      c.Speedup,
				"sync_reads":        float64(c.SyncReads),
				"prefetch_reads":    float64(c.PrefReads),
				"rows_match_failed": rowsFailed,
				"wasted":            float64(c.Prefetch.Wasted),
				"dropped":           float64(c.Prefetch.Dropped),
			},
		})
	}
	return cells
}

func (c *PrefetchCell) name() string { return fmt.Sprintf("lat=%s/depth=%d", c.Latency, c.Depth) }

// Check holds every cell to the two things prefetch must never do: read
// more pages than the synchronous path, or return different rows. Wall
// clock is noisy on a shared host: it is reported, never gated.
func (b *PrefetchBench) Check() []Violation {
	var out []Violation
	for _, c := range b.Points {
		if c.PrefReads > c.SyncReads {
			out = append(out, gate(c.name(), "page reads regressed (%d > %d)", c.PrefReads, c.SyncReads))
		}
		if !c.RowsMatch {
			out = append(out, gate(c.name(), "result rows diverged"))
		}
	}
	return out
}

// prefetchSweep runs the grid: device latencies from fast-NVMe to
// disk-array territory, two window depths; the quick grid keeps the fast
// device only.
func prefetchSweep(o SweepOpts) (Report, error) {
	latencies := []time.Duration{200 * time.Microsecond, time.Millisecond}
	return RunPrefetchSweep(pick(o, latencies, latencies[:1]), []int{4, 16}, *o.Seed)
}

// Sweep workload: BFS at a NumTop small enough that joinOne picks the
// probe path (80 keys × height 3 ≪ one leaf-scan), so every retrieve
// funnels through the B-tree's page-ordered batch lookup.
const (
	prefetchSweepRetrieves = 8
	prefetchSweepNumTop    = 16
)

func prefetchSweepConfig(seed int64) workload.Config {
	return workload.Config{
		NumParents: 2000,
		// A pool holding the whole working set: evictions would let the
		// two modes' replacement orders drift and blur the read-count
		// comparison; without them the counts are structurally identical.
		PoolPages: 1024,
		// Device waits overlap per pool stripe (a page transfer holds its
		// shard's mutex), so the prefetch workers need stripes to spread
		// across — same as the concurrent serving benchmark.
		PoolShards: 8,
		ProbeBatch: true,
		Seed:       seed,
	}
}

// runPrefetchMode executes retrieves once under kind and reports elapsed
// wall clock, page reads, an FNV-1a digest of every result row, and the
// prefetcher's counters (zero when cfg has prefetch off).
func runPrefetchMode(kind strategy.Kind, cfg workload.Config, retrieves, numTop int, latency time.Duration) (elapsed time.Duration, reads int64, rows uint64, st buffer.PrefetchStats, err error) {
	s, err := openSubject(kind, cfg, retrieves, 0, numTop)
	if err != nil {
		return 0, 0, 0, st, err
	}
	db, strat, ops := s.db, s.st, s.ops
	defer db.Close()
	if err := db.ResetCold(); err != nil {
		return 0, 0, 0, st, err
	}
	db.Disk.SetLatency(latency)
	h := fnv.New64a()
	var vbuf [8]byte
	start := time.Now()
	for _, op := range ops {
		res, rerr := strat.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
		if rerr != nil {
			return 0, 0, 0, st, rerr
		}
		for _, v := range res.Values {
			binary.LittleEndian.PutUint64(vbuf[:], uint64(v))
			h.Write(vbuf[:])
		}
	}
	elapsed = time.Since(start)
	db.Disk.SetLatency(0)
	return elapsed, db.Disk.Stats().Reads, h.Sum64(), db.Pool.Prefetcher().Stats(), nil
}

// RunPrefetchSweep runs the latency×depth grid: per latency one
// synchronous baseline, then one prefetch-enabled run per depth over the
// identical database, sequence and pool configuration.
func RunPrefetchSweep(latencies []time.Duration, depths []int, seed int64) (*PrefetchBench, error) {
	base := prefetchSweepConfig(seed)
	bench := &PrefetchBench{
		Config:   base.WithDefaults().String(),
		Strategy: strategy.BFS.String(),
	}
	for _, lat := range latencies {
		syncElapsed, syncReads, syncRows, _, err := runPrefetchMode(strategy.BFS, base, prefetchSweepRetrieves, prefetchSweepNumTop, lat)
		if err != nil {
			return nil, fmt.Errorf("harness: prefetch sweep sync lat=%s: %w", lat, err)
		}
		for _, depth := range depths {
			cfg := base
			cfg.PrefetchEnabled = true
			cfg.PrefetchDepth = depth
			prefElapsed, prefReads, prefRows, stats, err := runPrefetchMode(strategy.BFS, cfg, prefetchSweepRetrieves, prefetchSweepNumTop, lat)
			if err != nil {
				return nil, fmt.Errorf("harness: prefetch sweep lat=%s depth=%d: %w", lat, depth, err)
			}
			cell := &PrefetchCell{
				Latency:     lat,
				Depth:       depth,
				SyncElapsed: syncElapsed,
				PrefElapsed: prefElapsed,
				SyncReads:   syncReads,
				PrefReads:   prefReads,
				RowsMatch:   syncRows == prefRows,
				Prefetch:    stats,
			}
			if prefElapsed > 0 {
				cell.Speedup = float64(syncElapsed) / float64(prefElapsed)
			}
			if cell.Speedup > bench.BestSpeedup {
				bench.BestSpeedup = cell.Speedup
			}
			bench.Points = append(bench.Points, cell)
		}
	}
	return bench, nil
}
