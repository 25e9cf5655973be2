package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/reclust"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// Reclustering chaos: the online reorganizer runs concurrently with
// versioned updaters and snapshot readers under a disk fault plan
// (runReclustChaos), and under seeded kill schedules with the WAL
// armed (runReclustCrash). The contracts are the differential ones the
// other chaos tiers enforce: rows identical to a never-reclustered
// control, no torn reads through the full retrieve path, no pin leaks,
// no broken cache invariants — and after a crash, every object
// readable exactly once (no lost and no duplicated placements).

// reclustChaosCfg derives the subject database configuration: the
// clustered layout in its deliberately scattered form, with an outside
// cache in front so the reorganizer's invalidation path runs.
func reclustChaosCfg(base workload.Config) workload.Config {
	c := base.WithDefaults()
	c.Clustered = true
	c.ScatterClusters = true
	if c.CacheUnits == 0 {
		c.CacheUnits = workload.DefaultCacheUnits
	}
	return c
}

// runReclustChaos hammers a reclustering database with concurrent
// versioned updaters, snapshot readers, and a migration goroutine, all
// under the config's fault plan. Readers audit every snapshot retrieve
// for torn groups (a unit showing two different sentinels, or a sentinel
// mixed with build values); the reclusterer migrates hot units in small
// batches the whole time — a faulted batch must drop cleanly, publishing
// nothing. After the writers quiesce the versions drain into the base
// layout and full-attribute sweeps are compared value-for-value against
// a never-reclustered control build.
func runReclustChaos(cfg ChaosConfig) ([]Violation, error) {
	dbCfg := reclustChaosCfg(cfg.DB)
	h, err := newHammer("dfsclust+reclust", strategy.DFSCLUST, dbCfg, cfg, func(db *workload.DB) error {
		return db.EnableReclustering(0, 0)
	})
	if err != nil {
		return nil, err
	}
	db, st, updaters := h.db, h.st, len(h.batches)
	members := 0
	for _, b := range h.batches {
		members += len(b)
	}

	// The audit retrieves the updaters' parent range under one snapshot
	// and checks each unit's slice of the result: all-sentinel groups
	// must agree on one round, and a sentinel mixed with build values is
	// a torn read — regardless of whether the values came off base
	// pages, migrated extent pages, or the version overlay.
	audit := func(int, int) {
		snap := db.Versions.Begin()
		defer snap.Release()
		res, err := st.Retrieve(db, strategy.Query{
			Lo: 0, Hi: int64(updaters - 1), AttrIdx: workload.FieldRet1, Snap: snap,
		})
		if err != nil {
			if !disk.IsFault(err) {
				h.violate("unattributed-error", "snapshot retrieve: "+err.Error())
			}
			return
		}
		if len(res.Values) != members {
			h.violate("wrong-rows", fmt.Sprintf(
				"snapshot retrieve returned %d values, want %d (lost or duplicated members)", len(res.Values), members))
			return
		}
		off := 0
		for u, b := range h.batches {
			group := res.Values[off : off+len(b)]
			off += len(b)
			builds, sentinels := 0, 0
			seen := int64(-1)
			for _, v := range group {
				if v < 1<<32 {
					builds++
					continue
				}
				sentinels++
				if seen >= 0 && v != seen {
					h.violate("torn-version", fmt.Sprintf(
						"updater %d: sentinels %d and %d in one snapshot at epoch %d", u, seen, v, snap.Epoch()))
				}
				seen = v
			}
			if builds > 0 && sentinels > 0 {
				h.violate("torn-version", fmt.Sprintf(
					"updater %d: %d members at sentinel %d, %d still at build values, at epoch %d",
					u, sentinels, seen, builds, snap.Epoch()))
			}
		}
	}

	// The reorganizer: small batches, continuously, for the whole run.
	// A faulted batch is clean degradation — nothing published — but any
	// other error is a bug in the migration protocol.
	var migrated, migErrs atomic.Int64
	reorganize := func(quiesced func() bool) {
		for {
			done := quiesced()
			n, err := db.ReclustStep(2)
			switch {
			case err == nil:
				migrated.Add(int64(n))
			case disk.IsFault(err):
				migErrs.Add(1)
			default:
				h.violate("unattributed-error", "reclust step: "+err.Error())
				return
			}
			if done {
				return
			}
			runtime.Gosched()
		}
	}
	h.run(audit, reorganize)

	// Quiesce: migrate the updaters' parents if the faulted phase never
	// got to them, and drain the version store through the strategy's own
	// update path (which now write-throughs to the migrated copies).
	// This step counts towards the liveness check below: on few cores the
	// writers can finish before the auditors' retrieves have made any unit
	// hot, so the concurrent reorganizer legitimately finds nothing to
	// move — what must hold on every schedule is that migration happened
	// by the time the run is compared with its control.
	n, err := db.ReclustStep(updaters)
	if err != nil {
		h.violate("unattributed-error", "post-fault reclust step: "+err.Error())
	}
	migrated.Add(int64(n))
	h.drain()

	// Control: identical scattered build, never reclustered, with each
	// updater's final batch applied once. Full-range sweeps over every
	// attribute must agree value for value — same rows, same order.
	ctlCfg := dbCfg
	ctlCfg.CacheUnits = 0
	ctl, err := openSubject(strategy.DFSCLUST, ctlCfg, 0, 0, 1)
	if err != nil {
		return h.log.Violations, fmt.Errorf("harness: reclust chaos control: %w", err)
	}
	for u := range h.batches {
		if err := ctl.st.Update(ctl.db, h.batchOp(u, h.rounds)); err != nil {
			return h.log.Violations, fmt.Errorf("harness: reclust chaos control update: %w", err)
		}
	}
	compareWithControl(h.subject, ctl, fullSweeps(db), false, h.violate)

	if migrated.Load() == 0 && migErrs.Load() == 0 {
		h.violate("unattributed-error", "reorganizer never ran a batch")
	}
	return h.finish(), nil
}

// runReclustCrash runs seeded kill schedules against a reclustering
// database with the WAL armed: feed the heat tracker, commit a few
// migration batches, maybe leave one batch in doubt (its fsync fails,
// so the placements are logged but never acknowledged or published),
// then sever the process keeping a seeded slice of the unsynced log
// tail. Recovery must restore exactly the durable placements — the
// last committed metadata blob, which is either the last acknowledged
// batch's or, when the in-doubt commit survived in the kept tail, the
// in-doubt one's — and every object must read back exactly once,
// checked value-for-value against a crash-free never-reclustered
// control. Migration must also still work on the recovered database.
func runReclustCrash(cfg ChaosConfig) ([]Violation, error) {
	dbCfg := reclustChaosCfg(cfg.DB)
	dbCfg.CacheUnits = 0 // cache pages are exempt from write-ahead; keep schedules about placements
	if dbCfg.ZipfTheta == 0 {
		dbCfg.ZipfTheta = 0.9
	}

	var violations []Violation
	for s := 0; s < cfg.Schedules; s++ {
		log := scheduleLog{Seed: cfg.FaultSeed + int64(s), strategy: "dfsclust+reclust"}
		err := runReclustCrashSchedule(cfg, dbCfg, log.Seed, func(kind, detail string) { log.violate(-1, kind, detail) })
		violations = append(violations, log.Violations...)
		if err != nil {
			return violations, err
		}
	}
	return violations, nil
}

func runReclustCrashSchedule(cfg ChaosConfig, dbCfg workload.Config, seed int64, violate func(kind, detail string)) error {
	rng := rand.New(rand.NewSource(seed))
	dbCfg.Seed = seed

	// The sequence is the schedule's skewed retrieves, which feed the
	// heat tracker.
	s, err := openSubject(strategy.DFSCLUST, dbCfg, cfg.Ops, 0, cfg.NumTop)
	if err != nil {
		return err
	}
	db, st := s.db, s.st
	if err := db.EnableReclustering(0, 0); err != nil {
		return err
	}
	if err := db.EnableWAL(0); err != nil {
		return err
	}
	if cfg.Plan != (disk.FaultPlanConfig{}) {
		db.Disk.SetFault(cfg.faultPlan(seed).Fn())
	}
	for _, op := range s.ops {
		if _, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
			violate("unattributed-error", "heat retrieve: "+err.Error())
			return nil
		}
	}

	// Committed batches, snapshotting the placement map after each: the
	// last snapshot is what a crash discarding the in-doubt tail must
	// restore.
	nBatches := 1 + rng.Intn(3)
	for b := 0; b < nBatches; b++ {
		if _, err := db.ReclustStep(2 + rng.Intn(3)); err != nil {
			violate("unattributed-error", fmt.Sprintf("batch %d: %v", b, err))
			return nil
		}
	}
	committed := db.Reclust.Place.Snapshot()

	// Maybe one in-doubt batch: its fsync fails, so ReclustStep drops it
	// without publishing — but the records are in the log, and whether
	// the commit survives depends on how much unsynced tail the crash
	// keeps.
	inDoubt := rng.Intn(2) == 0
	if inDoubt {
		db.WAL.FailNextSync()
		if _, err := db.ReclustStep(2); err == nil {
			violate("unattributed-error", "in-doubt batch: fsync failure did not surface")
			return nil
		}
		if got := db.Reclust.Place.Len(); got != len(committed) {
			violate("torn-version", fmt.Sprintf(
				"in-doubt batch published %d placements despite failed commit (want %d)", got, len(committed)))
			return nil
		}
	}

	res, _, err := kill(db, rng)
	if err != nil {
		violate("unattributed-error", "recover: "+err.Error())
		return nil
	}
	if len(res.Commits) < nBatches {
		violate("lost-commit", fmt.Sprintf(
			"recovery replayed %d commits, %d migration batches were acknowledged", len(res.Commits), nBatches))
	}

	// The durable placements are all-or-nothing per batch: the restored
	// map equals the last acknowledged snapshot, except when the
	// in-doubt commit's bytes fully survived in the kept tail — then it
	// strictly extends it. Never anything in between.
	restored := db.Reclust.Place.Snapshot()
	switch {
	case reclustPlacementsEqual(restored, committed):
		// in-doubt batch (if any) discarded — the common case
	case inDoubt && len(restored) > len(committed) && reclustPlacementsContain(restored, committed):
		// in-doubt commit survived whole
	default:
		violate("torn-version", fmt.Sprintf(
			"recovery restored %d placements, last acknowledged batch had %d (in-doubt=%v) — partial batch",
			len(restored), len(committed), inDoubt))
	}

	// Exactly-once readability: full sweeps against a crash-free,
	// never-reclustered control of the same config.
	ctl, err := openSubject(strategy.DFSCLUST, dbCfg, 0, 0, 1)
	if err != nil {
		return err
	}
	compareWithControl(s, ctl, fullSweeps(db), false, violate)

	// The recovered database keeps reorganizing: one more batch (the WAL
	// is gone, so it publishes directly), then the rows must still match.
	if _, err := db.ReclustStep(2); err != nil {
		violate("unattributed-error", "post-recovery reclust step: "+err.Error())
		return nil
	}
	compareWithControl(s, ctl, fullSweeps(db), false, violate)
	if n := db.Pool.PinnedCount(); n != 0 {
		violate("pin-leak", fmt.Sprintf("%d pages still pinned after crash schedule", n))
	}
	return nil
}

// reclustPlacementsEqual reports whether two placement snapshots agree
// on every OID's RID (epochs are volatile and ignored).
func reclustPlacementsEqual(a, b map[object.OID]reclust.Entry) bool {
	return len(a) == len(b) && reclustPlacementsContain(a, b)
}

// reclustPlacementsContain reports whether every placement of sub is
// present in super with the same RID.
func reclustPlacementsContain(super, sub map[object.OID]reclust.Entry) bool {
	for oid, want := range sub {
		got, ok := super[oid]
		if !ok || got.RID != want.RID {
			return false
		}
	}
	return true
}

func TestReclustChaosFaultFree(t *testing.T) {
	v, err := runReclustChaos(ChaosConfig{
		DB:                 workload.Config{NumParents: 200, Seed: 7, ZipfTheta: 0.9},
		Ops:                15,
		ConcurrentUpdaters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, viol := range v {
		t.Errorf("violation: %s", viol)
	}
}

func TestReclustChaosUnderFaults(t *testing.T) {
	v, err := runReclustChaos(ChaosConfig{
		DB:                 workload.Config{NumParents: 200, Seed: 7, ZipfTheta: 0.9},
		Ops:                15,
		ConcurrentUpdaters: 3,
		FaultSeed:          1234,
		Plan: disk.FaultPlanConfig{
			PTransient:   0.002,
			TransientLen: 2,
			PSpike:       0.002,
			SpikeDur:     10 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, viol := range v {
		t.Errorf("violation: %s", viol)
	}
}

func TestReclustCrashSchedules(t *testing.T) {
	v, err := runReclustCrash(ChaosConfig{
		DB:        workload.Config{NumParents: 200},
		Schedules: 12,
		FaultSeed: 909,
		Ops:       20,
		NumTop:    4,
		Plan:      disk.FaultPlanConfig{PTorn: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, viol := range v {
		t.Errorf("violation: %s", viol)
	}
}
