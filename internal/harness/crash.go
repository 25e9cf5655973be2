// Kill-and-reopen differential chaos: every strategy is driven through
// seeded schedules that sever the database mid-run — buffer-pool frames
// die, the log survives only as its synced prefix plus a seeded slice
// of the unsynced tail (possibly cut mid-record), and torn half-writes
// may have landed on the disk. After recovery the contract is absolute:
// every acknowledged commit is readable, no torn page survives, and the
// rows equal a crash-free control that applied exactly the replayed
// commits. See DESIGN.md §12.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// CrashConfig parameterizes one crash-chaos sweep.
type CrashConfig struct {
	DB         workload.Config
	Strategies []strategy.Kind

	// Schedules is how many seeded kill schedules run per strategy;
	// schedule s draws its crash point, mid-commit flavor, and surviving
	// tail length from Seed + s.
	Schedules int
	Seed      int64

	// Ops retrieves (mixed with updates at PrUpdate) form each schedule.
	Ops      int
	PrUpdate float64
	NumTop   int

	// PTorn is the probability a page write tears mid-page during the
	// schedule — the recovery path must heal every torn page from its
	// logged image.
	PTorn float64

	// Timeout bounds one schedule; exceeding it is a deadlock violation.
	// 0 means 120s.
	Timeout time.Duration
}

// DefaultCrashConfig sizes the sweep so 50 schedules × 6 strategies
// finish in seconds: a small database, update-heavy schedules (commits
// are what crash recovery is about), and a torn-write rate that fires
// several times per schedule.
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		DB: workload.Config{
			NumParents:      400,
			Seed:            42,
			ProbeBatch:      true,
			PrefetchEnabled: true,
		},
		Strategies: strategy.AllKinds,
		Schedules:  50,
		Seed:       4242,
		Ops:        30,
		PrUpdate:   0.4,
		NumTop:     8,
		PTorn:      0.02,
	}
}

// CrashViolation is one broken durability guarantee.
type CrashViolation struct {
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	OpIndex  int    `json:"op_index"`
	Kind     string `json:"kind"` // lost-commit | wrong-rows | unknown-commit | rollback | unattributed-error | panic | deadlock
	Detail   string `json:"detail"`
}

func (v CrashViolation) String() string {
	return fmt.Sprintf("%s seed=%d op=%d %s: %s", v.Strategy, v.Seed, v.OpIndex, v.Kind, v.Detail)
}

// CrashRun is the outcome of one kill schedule.
type CrashRun struct {
	Seed        int64 `json:"seed"`
	CrashAt     int   `json:"crash_at"`   // ops executed before the kill
	MidCommit   bool  `json:"mid_commit"` // severed during an unacknowledged commit's fsync
	KeptTail    int64 `json:"kept_tail"`  // unsynced log bytes that survived
	OpsOK       int   `json:"ops_ok"`
	CleanErrors int   `json:"clean_errors"`
	Rollbacks   int   `json:"rollbacks"` // failed updates undone by redo-from-log

	Acked            int   `json:"acked_commits"`
	ReplayedCommits  int   `json:"replayed_commits"`
	ReplayedImages   int   `json:"replayed_images"`
	DiscardedRecords int   `json:"discarded_records"`
	DiscardedBytes   int64 `json:"discarded_bytes"`
	RowsCompared     int   `json:"rows_compared"`

	Faults     disk.FaultStats  `json:"faults"`
	Violations []CrashViolation `json:"violations,omitempty"`
}

// CrashStrategy aggregates one strategy's schedules.
type CrashStrategy struct {
	Strategy string      `json:"strategy"`
	Runs     []*CrashRun `json:"runs"`
}

// CrashBench is the full sweep, written to BENCH_crash.json.
type CrashBench struct {
	Config     string           `json:"config"`
	Schedules  int              `json:"schedules_per_strategy"`
	Ops        int              `json:"ops_per_schedule"`
	PrUpdate   float64          `json:"pr_update"`
	PTorn      float64          `json:"p_torn"`
	Strategies []*CrashStrategy `json:"strategies"`
	Violations int              `json:"violations"`
}

// Cells flattens the sweep into one envelope cell per strategy.
// Violations are the gate; the commit/replay volumes are deterministic
// under seeded schedules and gate too.
func (b *CrashBench) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, s := range b.Strategies {
		var viol, acked, replayed, discarded, rollbacks, cleanErrs, rows int
		for _, r := range s.Runs {
			viol += len(r.Violations)
			acked += r.Acked
			replayed += r.ReplayedCommits
			discarded += r.DiscardedRecords
			rollbacks += r.Rollbacks
			cleanErrs += r.CleanErrors
			rows += r.RowsCompared
		}
		cells = append(cells, bench.Cell{Name: s.Strategy, Metrics: map[string]float64{
			"violations":        float64(viol),
			"acked_commits":     float64(acked),
			"replayed_commits":  float64(replayed),
			"discarded_records": float64(discarded),
			"rollbacks":         float64(rollbacks),
			"clean_errors":      float64(cleanErrs),
			"rows_compared":     float64(rows),
		}})
	}
	return cells
}

// WriteJSON writes the bench wrapped in the versioned envelope.
func (b *CrashBench) WriteJSON(w io.Writer) error {
	return bench.Write(w, "crash", b, b.Cells())
}

// AllViolations flattens every recorded violation.
func (b *CrashBench) AllViolations() []CrashViolation {
	var out []CrashViolation
	for _, s := range b.Strategies {
		for _, r := range s.Runs {
			out = append(out, r.Violations...)
		}
	}
	return out
}

// RunCrashChaos executes the sweep. The returned error covers
// harness-level failures only; durability failures are violations.
func RunCrashChaos(cfg CrashConfig) (*CrashBench, error) {
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = strategy.AllKinds
	}
	if cfg.Schedules < 1 {
		cfg.Schedules = 1
	}
	if cfg.Ops < 2 {
		cfg.Ops = 20
	}
	if cfg.NumTop < 1 {
		cfg.NumTop = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	out := &CrashBench{
		Config:    cfg.DB.WithDefaults().String(),
		Schedules: cfg.Schedules,
		Ops:       cfg.Ops,
		PrUpdate:  cfg.PrUpdate,
		PTorn:     cfg.PTorn,
	}
	for _, kind := range cfg.Strategies {
		sres := &CrashStrategy{Strategy: kind.String()}
		dbCfg := provisionFor(kind, cfg.DB.WithDefaults())
		for s := 0; s < cfg.Schedules; s++ {
			spec := crashSpec{cfg: cfg, kind: kind, dbCfg: dbCfg, seed: cfg.Seed + int64(s)}
			sres.Runs = append(sres.Runs, runCrashSchedule(spec))
		}
		out.Strategies = append(out.Strategies, sres)
	}
	out.Violations = len(out.AllViolations())
	return out, nil
}

type crashSpec struct {
	cfg   CrashConfig
	kind  strategy.Kind
	dbCfg workload.Config
	seed  int64
}

// runCrashSchedule executes one schedule under a watchdog.
func runCrashSchedule(spec crashSpec) *CrashRun {
	done := make(chan *CrashRun, 1)
	go func() { done <- runCrashScheduleBody(spec) }()
	select {
	case run := <-done:
		return run
	case <-time.After(spec.cfg.Timeout):
		return &CrashRun{Seed: spec.seed, Violations: []CrashViolation{{
			Strategy: spec.kind.String(), Seed: spec.seed, OpIndex: -1,
			Kind: "deadlock", Detail: fmt.Sprintf("schedule still running after %s", spec.cfg.Timeout),
		}}}
	}
}

func runCrashScheduleBody(spec crashSpec) *CrashRun {
	run := &CrashRun{Seed: spec.seed}
	violate := func(op int, kind, detail string) {
		run.Violations = append(run.Violations, CrashViolation{
			Strategy: spec.kind.String(), Seed: spec.seed, OpIndex: op, Kind: kind, Detail: detail,
		})
	}
	rng := rand.New(rand.NewSource(spec.seed))

	db, err := workload.Build(spec.dbCfg)
	if err != nil {
		violate(-1, "unattributed-error", "build: "+err.Error())
		return run
	}
	defer db.Close()
	st, err := strategy.New(spec.kind, db)
	if err != nil {
		violate(-1, "unattributed-error", "strategy: "+err.Error())
		return run
	}
	ops := db.GenSequence(spec.cfg.Ops, spec.cfg.PrUpdate, spec.cfg.NumTop)
	if err := db.EnableWAL(0); err != nil {
		violate(-1, "unattributed-error", "enable WAL: "+err.Error())
		return run
	}

	// Schedule shape: kill after crashAt ops, half the time during an
	// unacknowledged commit's fsync (the mid-commit flavor below).
	crashAt := 1 + rng.Intn(len(ops)-1)
	midCommit := rng.Intn(2) == 0
	run.CrashAt = crashAt
	run.MidCommit = false

	plan := disk.NewFaultPlan(disk.FaultPlanConfig{PTorn: spec.cfg.PTorn, Seed: spec.seed})
	db.Disk.SetFault(plan.Fn())

	// seqOp maps every logged commit (acknowledged or in-doubt) back to
	// its op, so the control can apply exactly the replayed set.
	seqOp := map[uint64]int{}
	var acked []uint64

	for i := 0; i < crashAt; i++ {
		op := ops[i]
		_, opErr, panicked := runChaosOp(db, st, op)
		if panicked != "" {
			violate(i, "panic", panicked)
			return run
		}
		switch {
		case opErr == nil:
			run.OpsOK++
			if op.Kind == workload.OpUpdate {
				seq, cerr := db.Commit(nil)
				if cerr != nil {
					violate(i, "unattributed-error", "commit: "+cerr.Error())
					return run
				}
				seqOp[seq] = i
				acked = append(acked, seq)
			}
		case disk.IsFault(opErr):
			run.CleanErrors++
			if op.Kind == workload.OpUpdate {
				// The op may have half-applied before the fault; the no-steal
				// gate kept every uncommitted byte in frames, so redo from
				// the log restores exactly the last committed state. The
				// rollback itself runs fault-free — recovery machinery is
				// not subject to the schedule's fault plan (the post-crash
				// replay path gets the same dispensation below).
				db.Disk.SetFault(nil)
				rerr := db.WALRollback()
				db.Disk.SetFault(plan.Fn())
				if rerr != nil {
					violate(i, "rollback", rerr.Error())
					return run
				}
				run.Rollbacks++
			}
		default:
			violate(i, "unattributed-error", opErr.Error())
			return run
		}
		if err := db.Relieve(); err != nil {
			violate(i, "unattributed-error", "pressure capture: "+err.Error())
			return run
		}
	}

	// Mid-commit flavor: run one more update whose commit fsync fails —
	// the mutation is in the log but unacknowledged when the kill lands.
	// Whether it survives depends on how much unsynced tail the crash
	// keeps; either way the control applies exactly the replayed set.
	if midCommit {
		for j := crashAt; j < len(ops); j++ {
			if ops[j].Kind != workload.OpUpdate {
				continue
			}
			db.WAL.FailNextSync()
			_, opErr, panicked := runChaosOp(db, st, ops[j])
			if panicked != "" {
				violate(j, "panic", panicked)
				return run
			}
			if opErr == nil {
				seq, cerr := db.Commit(nil)
				if seq != 0 {
					seqOp[seq] = j // in-doubt: logged, never acknowledged
					if cerr == nil {
						acked = append(acked, seq)
					} else {
						run.MidCommit = true
					}
				}
			}
			break
		}
	}

	// The kill. Faults off first: recovery and verification model a
	// clean restart on healthy hardware.
	db.Disk.SetFault(nil)
	run.Faults = plan.Stats()
	run.Acked = len(acked)
	var keep int64
	if unsynced := db.WAL.Unsynced(); unsynced > 0 {
		keep = rng.Int63n(unsynced + 1)
	}
	run.KeptTail = keep
	res, err := db.CrashAndRecover(keep)
	if err != nil {
		violate(-1, "unattributed-error", "recover: "+err.Error())
		return run
	}
	run.ReplayedCommits = len(res.Commits)
	run.ReplayedImages = res.Replayed
	run.DiscardedRecords = res.DiscardedRecords
	run.DiscardedBytes = res.DiscardedBytes

	// Guarantee 1: every acknowledged commit was replayed.
	replayed := make(map[uint64]bool, len(res.Commits))
	for _, seq := range res.Commits {
		replayed[seq] = true
	}
	for _, seq := range acked {
		if !replayed[seq] {
			violate(seqOp[seq], "lost-commit",
				fmt.Sprintf("acknowledged commit %d missing after recovery (%d replayed)", seq, len(res.Commits)))
		}
	}

	// Crash-free control: same build, then exactly the replayed updates
	// in log order.
	ctl, err := workload.Build(spec.dbCfg)
	if err != nil {
		violate(-1, "unattributed-error", "control build: "+err.Error())
		return run
	}
	defer ctl.Close()
	cst, err := strategy.New(spec.kind, ctl)
	if err != nil {
		violate(-1, "unattributed-error", "control strategy: "+err.Error())
		return run
	}
	ctlOps := ctl.GenSequence(spec.cfg.Ops, spec.cfg.PrUpdate, spec.cfg.NumTop)
	for _, seq := range res.Commits {
		opIdx, ok := seqOp[seq]
		if !ok {
			violate(-1, "unknown-commit", fmt.Sprintf("recovery replayed commit %d that no op issued", seq))
			return run
		}
		if err := cst.Update(ctl, ctlOps[opIdx]); err != nil {
			violate(opIdx, "unattributed-error", "control update: "+err.Error())
			return run
		}
	}

	// Guarantee 2+3: recovered rows equal the control's — the schedule's
	// own retrieves, plus full-range sweeps over each attribute so every
	// page (healed torn pages included) is read back and checked.
	queries := make([]workload.Op, 0, len(ops)+3)
	for _, op := range ops {
		if op.Kind == workload.OpRetrieve {
			queries = append(queries, op)
		}
	}
	all := int64(db.Cfg.NumParents - 1)
	for _, attr := range []int{workload.FieldRet1, workload.FieldRet2, workload.FieldRet3} {
		queries = append(queries, workload.Op{Kind: workload.OpRetrieve, Lo: 0, Hi: all, AttrIdx: attr})
	}
	for qi, q := range queries {
		got, gotErr, panicked := runChaosOp(db, st, q)
		if panicked != "" {
			violate(-1, "panic", fmt.Sprintf("post-recovery retrieve %d: %s", qi, panicked))
			return run
		}
		if gotErr != nil {
			violate(-1, "unattributed-error", fmt.Sprintf("post-recovery retrieve %d: %v", qi, gotErr))
			return run
		}
		want, wantErr, panicked := runChaosOp(ctl, cst, q)
		if panicked != "" || wantErr != nil {
			violate(-1, "unattributed-error", fmt.Sprintf("control retrieve %d: %v%s", qi, wantErr, panicked))
			return run
		}
		run.RowsCompared++
		if !equalInt64(sortedVals(got), sortedVals(want)) {
			violate(-1, "wrong-rows", fmt.Sprintf(
				"retrieve %d [%d,%d] attr=%d: recovered %d values differ from crash-free control (%d values)",
				qi, q.Lo, q.Hi, q.AttrIdx, len(got), len(want)))
		}
	}
	return run
}
