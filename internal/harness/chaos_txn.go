package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// hammer is the concurrent skeleton under RunTxnChaos and the
// reclustering hammer its tests run (runReclustChaos): N updater goroutines each own one parent's unit and
// repeatedly commit the whole batch with a round-stamped sentinel value,
// while N auditor goroutines pin snapshots and check what they see. The
// contract under audit is commit atomicity — a snapshot sees a batch
// entirely at one round or not at all. Updater u owns parent u's unit:
// with the default overlap the units are disjoint, so only u's own
// commits ever touch its members and a mixed-round batch can only mean
// a torn commit.
type hammer struct {
	*subject
	rounds  int
	batches [][]object.OID

	mu     sync.Mutex
	log    scheduleLog
	audits atomic.Int64
}

// sentinel is the value updater u writes in round r. Build values are
// below 2^30, so a sentinel is recognizable in any retrieve result and
// carries its updater and round.
func sentinel(u, r int) int64 { return int64(u+1)<<32 | int64(r) }

// newHammer builds the subject cold with versioning on, lets arm switch
// on whatever else the run is about, and then installs the config's
// fault plan when it carries one: version installs are pure in-memory
// (they never fault), but the auditors' snapshot retrieves read base
// pages through the pool, so transient and spike faults exercise the
// degraded read paths under the atomicity contract.
func newHammer(label string, kind strategy.Kind, dbCfg workload.Config, cfg ChaosConfig, arm func(*workload.DB) error) (*hammer, error) {
	s, err := openSubject(kind, dbCfg, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	h := &hammer{subject: s, rounds: cfg.Ops, log: scheduleLog{Seed: cfg.FaultSeed, strategy: label}}
	if err := h.db.ResetCold(); err != nil {
		return nil, err
	}
	h.db.EnableVersioning()
	if arm != nil {
		if err := arm(h.db); err != nil {
			return nil, err
		}
	}
	if cfg.Plan != (disk.FaultPlanConfig{}) {
		h.db.Disk.SetFault(cfg.faultPlan(cfg.FaultSeed).Fn())
	}
	h.batches = make([][]object.OID, cfg.ConcurrentUpdaters)
	for u := range h.batches {
		h.batches[u] = h.db.UnitOf(int64(u))
		if len(h.batches[u]) == 0 {
			return nil, fmt.Errorf("harness: %s: parent %d has an empty unit", label, u)
		}
	}
	return h, nil
}

func (h *hammer) violate(kind, detail string) {
	h.mu.Lock()
	h.log.violate(-1, kind, detail)
	h.mu.Unlock()
}

// batchOp is updater u's whole-unit commit for one round.
func (h *hammer) batchOp(u, round int) workload.Op {
	op := workload.Op{Kind: workload.OpUpdate, Targets: h.batches[u]}
	for range h.batches[u] {
		op.NewRet1 = append(op.NewRet1, sentinel(u, round))
	}
	return op
}

// run drives the updaters through their rounds while one auditor per
// updater calls audit(g, pass) in a loop, and each background function
// runs beside them until it sees quiesced() and returns. Every auditor
// and background function gets one more pass after the writers join —
// fast in-memory writers can otherwise finish all rounds before a slow
// (race-instrumented) reader completes its first sweep. The faults are
// lifted on the way out: what follows a run is reconciliation and the
// final-state audit, which must be able to read every page.
func (h *hammer) run(audit func(g, pass int), background ...func(quiesced func() bool)) {
	var (
		writers, others sync.WaitGroup
		writersDone     atomic.Bool
	)
	for u := range h.batches {
		writers.Add(1)
		go func(u int) {
			defer writers.Done()
			for r := 1; r <= h.rounds; r++ {
				// Version installs never touch disk, so even with the fault
				// plan armed an update error here is a real bug.
				if err := h.st.Update(h.db, h.batchOp(u, r)); err != nil {
					h.violate("unattributed-error", fmt.Sprintf("updater %d round %d: %v", u, r, err))
					return
				}
			}
		}(u)
	}
	for g := range h.batches {
		others.Add(1)
		go func(g int) {
			defer others.Done()
			for pass := 0; ; pass++ {
				done := writersDone.Load()
				audit(g, pass)
				h.audits.Add(1)
				if done {
					return
				}
			}
		}(g)
	}
	for _, bg := range background {
		others.Add(1)
		go func(bg func(func() bool)) {
			defer others.Done()
			bg(writersDone.Load)
		}(bg)
	}
	writers.Wait()
	writersDone.Store(true)
	others.Wait()
	h.db.Disk.SetFault(nil)
}

// drain folds the version store back into the base layout through the
// strategy's own update path and returns how many objects it applied.
func (h *hammer) drain() int {
	n, err := h.db.DrainVersions(func(op workload.Op) error { return h.st.Update(h.db, op) })
	if err != nil {
		h.violate("unattributed-error", "drain: "+err.Error())
		return -1
	}
	return n
}

// finish audits what must hold after any hammer run and hands back
// everything recorded.
func (h *hammer) finish() []Violation {
	if n := h.db.Pool.PinnedCount(); n != 0 {
		h.violate("pin-leak", fmt.Sprintf("%d pages still pinned after the run", n))
	}
	if h.db.Cache != nil {
		if err := h.db.Cache.CheckInvariants(); err != nil {
			h.violate("cache-invariant", err.Error())
		}
	}
	if h.audits.Load() == 0 {
		h.violate("unattributed-error", "reader goroutines never completed an audit")
	}
	return h.log.Violations
}

// RunTxnChaos is the versioned-store atomicity hammer. Partial
// visibility of a batch is a torn-version violation; a member missing
// its final round after the writers join is a lost update. The run
// finishes by draining the store back into the base layout and
// re-reading every unit through the strategy's own (snapshot-free)
// retrieve, so a broken drain or a stale cache entry surfaces as a
// violation too. Harness-level failures (build errors) are returned as
// the error; contract breaches come back as violations.
func RunTxnChaos(cfg ChaosConfig, kind strategy.Kind) ([]Violation, error) {
	h, err := newHammer(kind.String(), kind, provisionFor(kind, cfg.DB.WithDefaults()), cfg, nil)
	if err != nil {
		return nil, err
	}
	db, st := h.db, h.st

	// The audit pins one snapshot and checks every batch for atomicity.
	h.run(func(g, pass int) {
		snap := db.Versions.Begin()
		defer snap.Release()
		for u, batch := range h.batches {
			seen, mixed := 0, false
			var val int64
			for _, oid := range batch {
				v, ok := snap.Read(oid)
				if !ok {
					continue
				}
				if seen > 0 && v != val {
					mixed = true
				}
				val = v
				seen++
			}
			switch {
			case seen != 0 && seen != len(batch):
				h.violate("torn-version", fmt.Sprintf(
					"updater %d: %d of %d members visible at epoch %d", u, seen, len(batch), snap.Epoch()))
			case mixed:
				h.violate("torn-version", fmt.Sprintf(
					"updater %d: members from different rounds visible at epoch %d", u, snap.Epoch()))
			}
		}
		if pass%4 == g%4 {
			// Exercise the full snapshot read path (overlay, cache
			// watermarks) under the same epoch, not just the store.
			// Attributed fault errors are clean degradation.
			if _, err := st.Retrieve(db, strategy.Query{
				Lo: 0, Hi: int64(len(h.batches) - 1), AttrIdx: workload.FieldRet1, Snap: snap,
			}); err != nil && !disk.IsFault(err) {
				h.violate("unattributed-error", "snapshot retrieve: "+err.Error())
			}
		}
	})

	// Post-join: the final snapshot must hold every batch at its last
	// round — anything else means a commit was lost.
	func() {
		snap := db.Versions.Begin()
		defer snap.Release()
		for u, batch := range h.batches {
			want := sentinel(u, h.rounds)
			for _, oid := range batch {
				if v, ok := snap.Read(oid); !ok || v != want {
					h.violate("lost-update", fmt.Sprintf(
						"updater %d member %v: got %d,%v want %d", u, oid, v, ok, want))
					break
				}
			}
		}
	}()

	// After the drain the base (and any cache in front of it) must serve
	// the final round, snapshot-free.
	wantDrained := 0
	for _, b := range h.batches {
		wantDrained += len(b)
	}
	if drained := h.drain(); drained >= 0 && drained != wantDrained {
		h.violate("lost-update", fmt.Sprintf("drain applied %d objects, want %d", drained, wantDrained))
	}
	for u, batch := range h.batches {
		res, err := st.Retrieve(db, strategy.Query{Lo: int64(u), Hi: int64(u), AttrIdx: workload.FieldRet1})
		if err != nil {
			h.violate("unattributed-error", fmt.Sprintf("post-drain retrieve %d: %v", u, err))
			continue
		}
		if len(res.Values) != len(batch) {
			h.violate("lost-update", fmt.Sprintf(
				"post-drain retrieve %d returned %d values, want %d", u, len(res.Values), len(batch)))
			continue
		}
		want := sentinel(u, h.rounds)
		for _, v := range res.Values {
			if v != want {
				h.violate("lost-update", fmt.Sprintf(
					"post-drain retrieve %d saw %d, want %d", u, v, want))
				break
			}
		}
	}
	return h.finish(), nil
}

func (l *scheduleLog) tally(map[string]float64) {}

// txnChaosSweep is the txnchaos sweep: RunTxnChaos under the chaos
// grid's database and fault plan (ConcurrentUpdaters × Ops rounds), for
// an uncached and a cached strategy. A hammer run is one schedule whose
// only count is its violations.
func txnChaosSweep(o SweepOpts) (Report, error) {
	cfg := chaosGrid(o)
	return runSchedules(cfg, []strategy.Kind{strategy.DFS, strategy.DFSCACHE}, func(kind strategy.Kind, _ workload.Config, out *StrategyRuns[*scheduleLog]) error {
		v, err := RunTxnChaos(cfg, kind)
		out.Runs = append(out.Runs, &scheduleLog{Seed: cfg.FaultSeed, Violations: v})
		return err
	})
}
