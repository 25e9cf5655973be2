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
	"math/rand"

	"corep/internal/disk"
	"corep/internal/strategy"
	"corep/internal/wal"
	"corep/internal/workload"
)

// crashGrid is the chaos grid's database and strategies under kill
// schedules instead of fault schedules: update-heavy (commits are what
// crash recovery is about), the only fault a torn-write rate that fires
// several times per schedule — the recovery path must heal every torn
// page from its logged image. Schedule s draws its crash point,
// mid-commit flavor and surviving tail length from FaultSeed + s. The
// full grid's 50 schedules × 6 strategies finish in seconds.
func crashGrid(o SweepOpts) ChaosConfig {
	cfg := chaosGrid(o)
	cfg.Schedules = pick(o, 50, 5)
	cfg.PrUpdate = 0.4
	cfg.Plan = disk.FaultPlanConfig{PTorn: 0.02}
	return cfg
}

func crashSweep(o SweepOpts) (Report, error) { return RunCrashChaos(crashGrid(o)) }

// CrashRun is the outcome of one kill schedule.
type CrashRun struct {
	scheduleLog
	CrashAt   int   `json:"crash_at"`   // ops executed before the kill
	MidCommit bool  `json:"mid_commit"` // severed during an unacknowledged commit's fsync
	KeptTail  int64 `json:"kept_tail"`  // unsynced log bytes that survived
	Rollbacks int   `json:"rollbacks"`  // failed updates undone by redo-from-log

	Acked            int   `json:"acked_commits"`
	ReplayedCommits  int   `json:"replayed_commits"`
	ReplayedImages   int   `json:"replayed_images"`
	DiscardedRecords int   `json:"discarded_records"`
	DiscardedBytes   int64 `json:"discarded_bytes"`
	RowsCompared     int   `json:"rows_compared"`

	Faults disk.FaultStats `json:"faults"`
}

type (
	CrashBench    = ScheduleBench[*CrashRun]
	CrashStrategy = StrategyRuns[*CrashRun]
)

// tally adds the schedule's counts to its strategy's cell. Every count
// is seeded and replays exactly.
func (r *CrashRun) tally(m map[string]float64) {
	m["acked_commits"] += float64(r.Acked)
	m["replayed_commits"] += float64(r.ReplayedCommits)
	m["discarded_records"] += float64(r.DiscardedRecords)
	m["rollbacks"] += float64(r.Rollbacks)
	m["clean_errors"] += float64(r.CleanErrors)
	m["rows_compared"] += float64(r.RowsCompared)
}

// RunCrashChaos executes the kill-schedule sweep.
func RunCrashChaos(cfg ChaosConfig) (*CrashBench, error) {
	return runSchedules(cfg, cfg.Strategies, func(kind strategy.Kind, dbCfg workload.Config, out *CrashStrategy) error {
		for s := 0; s < cfg.Schedules; s++ {
			spec := scheduleSpec{cfg: cfg, kind: kind, dbCfg: dbCfg, seed: cfg.FaultSeed + int64(s)}
			out.Runs = append(out.Runs, runCrashSchedule(spec))
		}
		return nil
	})
}

// kill severs the database, keeping a seeded slice of the unsynced log
// tail, and recovers it. Faults come off first: recovery and
// verification model a clean restart on healthy hardware.
func kill(db *workload.DB, rng *rand.Rand) (res *wal.Result, kept int64, err error) {
	db.Disk.SetFault(nil)
	if unsynced := db.WAL.Unsynced(); unsynced > 0 {
		kept = rng.Int63n(unsynced + 1)
	}
	res, err = db.CrashAndRecover(kept)
	return res, kept, err
}

func runCrashSchedule(spec scheduleSpec) *CrashRun {
	return underWatchdog(spec, func(l scheduleLog) *CrashRun { return &CrashRun{scheduleLog: l} }, runCrashScheduleBody)
}

func runCrashScheduleBody(spec scheduleSpec, run *CrashRun) {
	violate := run.violate
	rng := rand.New(rand.NewSource(spec.seed))

	s, err := openSubject(spec.kind, spec.dbCfg, spec.cfg.Ops, spec.cfg.PrUpdate, spec.cfg.NumTop)
	if err != nil {
		violate(-1, "unattributed-error", err.Error())
		return
	}
	db, st, ops := s.db, s.st, s.ops
	if err := db.EnableWAL(0); err != nil {
		violate(-1, "unattributed-error", "enable WAL: "+err.Error())
		return
	}

	// Schedule shape: kill after crashAt ops, half the time during an
	// unacknowledged commit's fsync (the mid-commit flavor below).
	crashAt := 1 + rng.Intn(len(ops)-1)
	midCommit := rng.Intn(2) == 0
	run.CrashAt = crashAt
	run.MidCommit = false

	plan := spec.cfg.faultPlan(spec.seed)
	db.Disk.SetFault(plan.Fn())

	// seqOp maps every logged commit (acknowledged or in-doubt) back to
	// its op, so the control can apply exactly the replayed set.
	seqOp := map[uint64]int{}
	var acked []uint64

	for i := 0; i < crashAt; i++ {
		op := ops[i]
		_, outcome := run.exec(i, s, op)
		switch {
		case outcome == opBroken || outcome == opPanicked:
			return
		case op.Kind != workload.OpUpdate:
		case outcome == opOK:
			seq, cerr := db.Commit(nil)
			if cerr != nil {
				violate(i, "unattributed-error", "commit: "+cerr.Error())
				return
			}
			seqOp[seq] = i
			acked = append(acked, seq)
		case outcome == opFaulted:
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
				return
			}
			run.Rollbacks++
		}
		if err := db.Relieve(); err != nil {
			violate(i, "unattributed-error", "pressure capture: "+err.Error())
			return
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
			_, opErr := runChaosOp(db, st, ops[j])
			if panicked(opErr) {
				violate(j, "panic", opErr.Error())
				return
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

	res, keep, err := kill(db, rng)
	run.Faults = plan.Stats()
	run.Acked = len(acked)
	run.KeptTail = keep
	if err != nil {
		violate(-1, "unattributed-error", "recover: "+err.Error())
		return
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
	c, err := openSubject(spec.kind, spec.dbCfg, spec.cfg.Ops, spec.cfg.PrUpdate, spec.cfg.NumTop)
	if err != nil {
		violate(-1, "unattributed-error", "control "+err.Error())
		return
	}
	ctl, cst, ctlOps := c.db, c.st, c.ops
	for _, seq := range res.Commits {
		opIdx, ok := seqOp[seq]
		if !ok {
			violate(-1, "unknown-commit", fmt.Sprintf("recovery replayed commit %d that no op issued", seq))
			return
		}
		if err := cst.Update(ctl, ctlOps[opIdx]); err != nil {
			violate(opIdx, "unattributed-error", "control update: "+err.Error())
			return
		}
	}

	// Guarantee 2+3: recovered rows equal the control's — the schedule's
	// own retrieves, plus full-range sweeps over each attribute so every
	// page (healed torn pages included) is read back and checked.
	var queries []workload.Op
	for _, op := range ops {
		if op.Kind == workload.OpRetrieve {
			queries = append(queries, op)
		}
	}
	run.RowsCompared = compareWithControl(s, c, append(queries, fullSweeps(db)...), true,
		func(kind, detail string) { violate(-1, kind, "post-recovery "+detail) })
}
