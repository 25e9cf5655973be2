package harness

import (
	"fmt"

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

// txnGrid is the BENCH_txn.json grid: uniform and hot-skewed access,
// read-only through update-heavy mixes, 1..8 clients, DFSCACHE (the
// strategy whose update path also exercises cache invalidation). The
// quick grid keeps both skews at one update rate and two client counts,
// ten operations per client.
func txnGrid(o SweepOpts) TxnSweepConfig {
	return TxnSweepConfig{
		Base: ServeConfig{
			DB:           workload.Config{NumParents: 2000, Seed: *o.Seed, ProbeBatch: true, PoolShards: 8},
			Strategy:     strategy.DFSCACHE,
			OpsPerClient: pick(o, 40, 10),
			NumTop:       8,
			DiskLatency:  *o.Latency,
		},
		Thetas:  []float64{0, 0.9},
		Updates: pick(o, []float64{0, 0.3, 0.6}, []float64{0.3}),
		Clients: pick(o, []int{1, 2, 4, 8}, []int{1, 4}),
	}
}

func txnSweep(o SweepOpts) (Report, error) { return RunTxnSweep(txnGrid(o)) }

// RunTxnSweep runs the grid: one point per (mode, theta, update-rate,
// clients) tuple, named like "versioned/z0.9/u0.3/K=8".
func RunTxnSweep(cfg TxnSweepConfig) (*ServeGrid, error) {
	var points []servePoint
	for _, theta := range cfg.Thetas {
		for _, pu := range cfg.Updates {
			for _, k := range cfg.Clients {
				for _, mode := range []string{"versioned", "latched"} {
					points = append(points, servePoint{fmt.Sprintf("%s/z%g/u%g/K=%d", mode, theta, pu, k), func(c *ServeConfig) {
						c.DB.ZipfTheta, c.PrUpdate, c.Clients, c.Versioned = theta, pu, k, mode == "versioned"
					}})
				}
			}
		}
	}
	return serveGrid(cfg.Base, points)
}
