package harness

import (
	"fmt"
	"slices"

	"corep/internal/bench"
	"corep/internal/reclust"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// Online-reclustering convergence sweep (BENCH_reclust.json): start
// from a deliberately scattered clustered database, replay a fixed
// Zipf-skewed retrieve set to feed the heat tracker, migrate the
// hottest parents between rounds, and watch I/O-per-query fall toward
// the statically-clustered DFSCLUST figure cell. Three databases from
// one seed: the reclustered subject, an identical scattered control
// that never reclusters (row-identity oracle), and the static build
// (the convergence target). Everything is deterministic — the gate
// failures below are regressions, not noise.

// ReclustConvergenceSlack is the acceptance bound: the final round's
// I/O-per-query must be within 15% of the statically-clustered cell.
const ReclustConvergenceSlack = 1.15

// ReclustSweepConfig parameterizes RunReclustSweep.
type ReclustSweepConfig struct {
	DB workload.Config `json:"db"` // base config; Clustered forced, ScatterClusters set per build

	NumRetrieves int     `json:"num_retrieves"` // fixed query set size
	NumTop       int     `json:"num_top"`
	ZipfTheta    float64 `json:"zipf_theta"`

	MaxRounds     int `json:"max_rounds"`      // migration rounds (stops early when nothing moves)
	StepParents   int `json:"step_parents"`    // hot parents per ReclustStep
	StepsPerRound int `json:"steps_per_round"` // ReclustSteps between measurements
	HeatCap       int `json:"heat_cap"`        // heat-table capacity (0 = NumParents)
	HalfLife      int `json:"half_life"`       // heat decay half-life in queries
}

// reclustGrid is the configuration behind the committed
// BENCH_reclust.json: a database an order of magnitude larger than the
// pool, θ=0.9 skew, and a migration budget that finishes the queried hot
// set within the round limit. The whole sweep takes a fraction of a
// second, so the quick grid is the same grid.
func reclustGrid(o SweepOpts) ReclustSweepConfig {
	return ReclustSweepConfig{
		DB: workload.Config{
			NumParents: 2000,
			PoolPages:  60,
			Seed:       *o.Seed,
		},
		NumRetrieves:  300,
		NumTop:        4,
		ZipfTheta:     0.9,
		MaxRounds:     6,
		StepParents:   50,
		StepsPerRound: 2,
		HalfLife:      256,
	}
}

func reclustSweep(o SweepOpts) (Report, error) { return RunReclustSweep(reclustGrid(o)) }

// ReclustRound is one measured migration round. Round 0 is the fully
// scattered starting point, before any migration.
type ReclustRound struct {
	Round       int     `json:"round"`
	IOPerQuery  float64 `json:"io_per_query"`
	Moved       int     `json:"moved"`        // subobjects migrated before this measurement
	MigrationIO int64   `json:"migration_io"` // I/O charged to those migrations
	Placements  int     `json:"placements"`   // live placement-map entries
}

// ReclustSweep is the full result.
type ReclustSweep struct {
	Config ReclustSweepConfig `json:"config"`

	// StaticIOPerQuery is the statically-clustered DFSCLUST cell on the
	// same query set — the convergence target.
	StaticIOPerQuery float64        `json:"static_io_per_query"`
	Rounds           []ReclustRound `json:"rounds"`
	Stats            reclust.Stats  `json:"stats"`

	// RowsChecked counts retrieve result values compared (every round,
	// against the non-reclustered control).
	RowsChecked int `json:"rows_checked"`
}

// replayRetrieves runs the fixed query set cold and returns average
// I/O per query plus every projected value in order.
func replayRetrieves(s *subject, ops []workload.Op) (float64, []int64, error) {
	if err := s.db.ResetCold(); err != nil {
		return 0, nil, err
	}
	before := s.db.Disk.Stats().Total()
	var vals []int64
	for _, op := range ops {
		res, err := s.st.Retrieve(s.db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
		if err != nil {
			return 0, nil, err
		}
		vals = append(vals, res.Values...)
	}
	io := s.db.Disk.Stats().Total() - before
	return float64(io) / float64(len(ops)), vals, nil
}

// RunReclustSweep runs the convergence experiment.
func RunReclustSweep(cfg ReclustSweepConfig) (*ReclustSweep, error) {
	base := cfg.DB.WithDefaults()
	base.Clustered = true
	base.CacheUnits = 0
	base.ZipfTheta = cfg.ZipfTheta
	scattered := base
	scattered.ScatterClusters = true

	// One fixed retrieve set, generated once (by the subject) and
	// replayed on every database: identical data (same seed, values drawn
	// before layout) means identical correct answers everywhere.
	subj, err := openSubject(strategy.DFSCLUST, scattered, cfg.NumRetrieves, 0, cfg.NumTop)
	if err != nil {
		return nil, err
	}
	subject, ops := subj.db, subj.ops // the database that reclusters
	defer subject.Close()
	control, err := openSubject(strategy.DFSCLUST, scattered, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	defer control.db.Close()
	static, err := openSubject(strategy.DFSCLUST, base, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	defer static.db.Close()

	// DFSCLUST retrieves feed the subject's heat tracker directly.
	if err := subject.EnableReclustering(cfg.HeatCap, cfg.HalfLife); err != nil {
		return nil, err
	}

	sweep := &ReclustSweep{Config: cfg}
	staticIO, staticVals, err := replayRetrieves(static, ops)
	if err != nil {
		return nil, err
	}
	sweep.StaticIOPerQuery = staticIO
	_, controlVals, err := replayRetrieves(control, ops)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(staticVals, controlVals) {
		return nil, fmt.Errorf("reclust sweep: static and scattered builds disagree on rows")
	}

	for round := 0; round <= cfg.MaxRounds; round++ {
		moved, migIO := 0, int64(0)
		if round > 0 {
			before := subject.Disk.Stats().Total()
			for s := 0; s < cfg.StepsPerRound; s++ {
				n, err := subject.ReclustStep(cfg.StepParents)
				if err != nil {
					return nil, fmt.Errorf("reclust sweep round %d: %w", round, err)
				}
				moved += n
			}
			migIO = subject.Disk.Stats().Total() - before
			if moved == 0 {
				break // hot set fully migrated
			}
		}
		ioq, vals, err := replayRetrieves(subj, ops)
		if err != nil {
			return nil, fmt.Errorf("reclust sweep round %d: %w", round, err)
		}
		if len(vals) != len(controlVals) {
			return nil, fmt.Errorf("reclust sweep round %d: %d values, control has %d", round, len(vals), len(controlVals))
		}
		for i := range vals {
			if vals[i] != controlVals[i] {
				return nil, fmt.Errorf("reclust sweep round %d: value %d is %d, control says %d", round, i, vals[i], controlVals[i])
			}
		}
		sweep.RowsChecked += len(vals)
		sweep.Rounds = append(sweep.Rounds, ReclustRound{
			Round:       round,
			IOPerQuery:  ioq,
			Moved:       moved,
			MigrationIO: migIO,
			Placements:  subject.Reclust.Place.Len(),
		})
	}
	sweep.Stats = *subject.ReclustStats()
	return sweep, nil
}

// Check verifies the acceptance properties: I/O-per-query strictly
// decreases across migration rounds, and the final round lands within
// ReclustConvergenceSlack of the statically-clustered cell.
func (s *ReclustSweep) Check() []Violation {
	if len(s.Rounds) < 2 {
		return []Violation{gate("rounds", "only %d rounds measured", len(s.Rounds))}
	}
	var out []Violation
	for i := 1; i < len(s.Rounds); i++ {
		prev, cur := s.Rounds[i-1], s.Rounds[i]
		if cur.IOPerQuery >= prev.IOPerQuery {
			out = append(out, gate(fmt.Sprintf("round%d", cur.Round), "io/query did not decrease from round %d (%.2f): %.2f",
				prev.Round, prev.IOPerQuery, cur.IOPerQuery))
		}
	}
	final := s.Rounds[len(s.Rounds)-1].IOPerQuery
	if final > s.StaticIOPerQuery*ReclustConvergenceSlack {
		out = append(out, gate("convergence", "final io/query %.2f outside %.0f%% of static cell %.2f",
			final, (ReclustConvergenceSlack-1)*100, s.StaticIOPerQuery))
	}
	return out
}

// Cells flattens the sweep for the bench envelope.
func (s *ReclustSweep) Cells() []bench.Cell {
	cells := []bench.Cell{{
		Name:    "static",
		Metrics: map[string]float64{"io_per_query": s.StaticIOPerQuery},
	}}
	for _, r := range s.Rounds {
		cells = append(cells, bench.Cell{
			Name: fmt.Sprintf("round%d", r.Round),
			Metrics: map[string]float64{
				"io_per_query": r.IOPerQuery,
				"migration_io": float64(r.MigrationIO),
				"moved":        float64(r.Moved),
			},
		})
	}
	if n := len(s.Rounds); n > 0 && s.StaticIOPerQuery > 0 {
		cells = append(cells, bench.Cell{
			Name: "convergence",
			Metrics: map[string]float64{
				"final_over_static": s.Rounds[n-1].IOPerQuery / s.StaticIOPerQuery,
			},
		})
	}
	return cells
}
