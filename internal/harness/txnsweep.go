package harness

import (
	"fmt"
	"io"
	"time"

	"corep/internal/bench"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// TxnSweepConfig configures the write-contention sweep: a grid of zipf
// skew × update rate × client count, each point served twice over the
// identical pre-generated sequence — once with versioned snapshots
// (epoch reads, per-object commit latches) and once with the historic
// global RW latch — so every cell pair isolates the cost of the lock.
type TxnSweepConfig struct {
	Base    ServeConfig // Clients/PrUpdate/ZipfTheta overridden per point
	Thetas  []float64   // zipf skew of parent popularity (0 = uniform)
	Updates []float64   // PrUpdate mix points
	Clients []int       // client counts (K)
}

// DefaultTxnSweep is the BENCH_txn.json grid: uniform and hot-skewed
// access, read-only through update-heavy mixes, 1..8 clients, DFSCACHE
// (the strategy whose update path also exercises cache invalidation).
func DefaultTxnSweep() TxnSweepConfig {
	return TxnSweepConfig{
		Base: ServeConfig{
			DB:           workload.Config{NumParents: 2000, Seed: 42, ProbeBatch: true, PoolShards: 8},
			Strategy:     strategy.DFSCACHE,
			OpsPerClient: 40,
			NumTop:       8,
			DiskLatency:  100 * time.Microsecond,
		},
		Thetas:  []float64{0, 0.9},
		Updates: []float64{0, 0.3, 0.6},
		Clients: []int{1, 2, 4, 8},
	}
}

// TxnPoint is one grid point's pair of runs.
type TxnPoint struct {
	Theta     float64      `json:"zipf_theta"`
	PrUpdate  float64      `json:"pr_update"`
	Clients   int          `json:"clients"`
	Versioned *ServeResult `json:"versioned"`
	Latched   *ServeResult `json:"latched"`
}

// TxnBench is the contention sweep's result (BENCH_txn.json).
type TxnBench struct {
	Config   string      `json:"config"`
	Strategy string      `json:"strategy"`
	Points   []*TxnPoint `json:"points"`
}

// RunTxnSweep runs the grid. Every point regenerates the same seeded
// database and sequence for both modes, so the versioned and latched
// cells of a point execute the identical operation stream.
func RunTxnSweep(cfg TxnSweepConfig) (*TxnBench, error) {
	if len(cfg.Thetas) == 0 {
		cfg.Thetas = []float64{0}
	}
	if len(cfg.Updates) == 0 {
		cfg.Updates = []float64{0.3}
	}
	if len(cfg.Clients) == 0 {
		cfg.Clients = []int{1, 4, 8}
	}
	b := &TxnBench{
		Config:   cfg.Base.DB.WithDefaults().String(),
		Strategy: cfg.Base.Strategy.String(),
	}
	for _, theta := range cfg.Thetas {
		for _, pu := range cfg.Updates {
			for _, k := range cfg.Clients {
				pt := &TxnPoint{Theta: theta, PrUpdate: pu, Clients: k}
				for _, versioned := range []bool{true, false} {
					run := cfg.Base
					run.DB.ZipfTheta = theta
					run.PrUpdate = pu
					run.Clients = k
					run.Versioned = versioned
					res, err := Serve(run)
					if err != nil {
						return nil, fmt.Errorf("harness: txn sweep z=%g u=%g K=%d versioned=%v: %w",
							theta, pu, k, versioned, err)
					}
					if versioned {
						pt.Versioned = res
					} else {
						pt.Latched = res
					}
				}
				b.Points = append(b.Points, pt)
			}
		}
	}
	return b, nil
}

// Cells flattens the sweep: one cell per (mode, theta, update-rate,
// clients) tuple, named like "versioned/z0.9/u0.3/K=8".
func (b *TxnBench) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, pt := range b.Points {
		tag := fmt.Sprintf("z%g/u%g/K=%d", pt.Theta, pt.PrUpdate, pt.Clients)
		cells = append(cells, serveCell("versioned/"+tag, pt.Versioned))
		cells = append(cells, serveCell("latched/"+tag, pt.Latched))
	}
	return cells
}

// WriteJSON writes the bench wrapped in the versioned envelope.
func (b *TxnBench) WriteJSON(w io.Writer) error {
	return bench.Write(w, "txn", b, b.Cells())
}
