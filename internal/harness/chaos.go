// Differential chaos harness: every strategy is driven through seeded
// fault schedules and held to one contract — a run either returns rows
// identical to the fault-free baseline or surfaces a clean error
// attributed to the injector (errors.Is(err, disk.ErrFaulted)). A
// panic, a hang, a leaked pin, a staged prefetch page left behind, a
// broken cache invariant, or a silently wrong answer is a violation.
package harness

import (
	"fmt"
	"io"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// ChaosConfig parameterizes one differential chaos sweep.
type ChaosConfig struct {
	DB         workload.Config
	Strategies []strategy.Kind

	// Schedules is how many seeded fault schedules run per strategy;
	// schedule s uses fault seed FaultSeed + s. A fault-free control
	// schedule always runs first.
	Schedules int
	FaultSeed int64

	// Ops retrieves (mixed with updates at PrUpdate) form each schedule,
	// regenerated identically for the baseline and every fault run.
	Ops      int
	PrUpdate float64
	NumTop   int

	// Plan is the fault mix; its Seed field is overridden per schedule.
	Plan disk.FaultPlanConfig

	// Timeout bounds one schedule; exceeding it is recorded as a
	// deadlock violation. 0 means 120s.
	Timeout time.Duration

	// ConcurrentUpdaters arms the versioned-store atomicity hammer
	// (RunTxnChaos): that many writer goroutines commit sentinel batches
	// while as many readers audit every snapshot for torn or lost
	// versions. 0 lets RunTxnChaos pick its default (2).
	ConcurrentUpdaters int

	// SlowLogSize, when positive, arms per-schedule tail sampling: every
	// operation is traced (full span tree plus per-op fault-plan deltas)
	// and the SlowLogSize slowest land in ChaosRun.SlowQueries. A
	// schedule is single-threaded, so unlike the serve tier the captured
	// I/O deltas are exact — a latency spike shows up as an entry whose
	// fault.spikes attribute names the injector. Zero disables capture
	// entirely (no tracer attached, nothing measured).
	SlowLogSize int
	// SlowThreshold marks entries at or over it as SLO violations
	// (0 = retain-slowest only).
	SlowThreshold time.Duration
}

// DefaultChaosConfig is a sweep over all six strategies sized so a
// 50-schedule run finishes in seconds: a small database, a mixed
// workload, and fault rates that fire a handful of times per schedule.
// Batched probes and the prefetcher are enabled — the concurrent code
// paths are exactly what fault coverage is for.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		DB: workload.Config{
			NumParents:      400,
			Seed:            42,
			ProbeBatch:      true,
			PrefetchEnabled: true,
		},
		Strategies: strategy.AllKinds,
		Schedules:  50,
		FaultSeed:  1000,
		Ops:        30,
		PrUpdate:   0.25,
		NumTop:     8,
		Plan: disk.FaultPlanConfig{
			PTransient:   0.003,
			TransientLen: 2,
			PPermanent:   0.0008,
			PSpike:       0.002,
			SpikeDur:     20 * time.Microsecond,
			PTorn:        0.001,
		},
	}
}

// ChaosViolation is one broken resilience guarantee.
type ChaosViolation struct {
	Strategy string `json:"strategy"`
	Seed     int64  `json:"fault_seed"`
	OpIndex  int    `json:"op_index"`
	Kind     string `json:"kind"` // panic | wrong-rows | unattributed-error | pin-leak | staged-leak | cache-invariant | deadlock
	Detail   string `json:"detail"`
}

func (v ChaosViolation) String() string {
	return fmt.Sprintf("%s seed=%d op=%d %s: %s", v.Strategy, v.Seed, v.OpIndex, v.Kind, v.Detail)
}

// ChaosRun is the outcome of one schedule (one strategy, one seed).
type ChaosRun struct {
	Seed          int64 `json:"fault_seed"`
	OpsOK         int   `json:"ops_ok"`
	CleanErrors   int   `json:"clean_errors"` // attributed fault errors surfaced to the caller
	FailedUpdates int   `json:"failed_updates"`
	RowsCompared  int   `json:"rows_compared"` // retrieves checked against the baseline

	Faults        disk.FaultStats  `json:"faults"`
	Retries       int64            `json:"buffer_retries"`
	Recovered     int64            `json:"buffer_recovered"`
	CacheDegraded int64            `json:"cache_degraded"`
	CacheOrphans  int64            `json:"cache_orphans"`
	PrefetchErrs  int64            `json:"prefetch_fetch_errors"`
	Violations    []ChaosViolation `json:"violations,omitempty"`

	// SlowQueries is the schedule's tail sample (ChaosConfig.SlowLogSize
	// slowest operations, exact span trees, fault-plan attr deltas).
	SlowQueries []obs.SlowEntry `json:"slow_queries,omitempty"`
}

// ChaosStrategy aggregates one strategy's schedules.
type ChaosStrategy struct {
	Strategy      string      `json:"strategy"`
	BaselineReads int64       `json:"baseline_reads"`
	Control       *ChaosRun   `json:"control"` // fault-free differential run
	Runs          []*ChaosRun `json:"runs"`
}

// ChaosBench is the full sweep, written to BENCH_chaos.json.
type ChaosBench struct {
	Config     string               `json:"config"`
	Schedules  int                  `json:"schedules_per_strategy"`
	Ops        int                  `json:"ops_per_schedule"`
	PrUpdate   float64              `json:"pr_update"`
	NumTop     int                  `json:"num_top"`
	Plan       disk.FaultPlanConfig `json:"fault_plan"`
	Strategies []*ChaosStrategy     `json:"strategies"`
	Violations int                  `json:"violations"`
}

// Cells flattens the sweep into one envelope cell per strategy.
// Violations and baseline reads are deterministic (seeded schedules) and
// gate; clean-error/retry counts legitimately wander with the fault mix
// and stay informational.
func (b *ChaosBench) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, s := range b.Strategies {
		var viol, cleanErrs, opsOK int
		var retries, recovered int64
		runs := s.Runs
		if s.Control != nil {
			runs = append([]*ChaosRun{s.Control}, runs...)
		}
		for _, r := range runs {
			viol += len(r.Violations)
			cleanErrs += r.CleanErrors
			opsOK += r.OpsOK
			retries += r.Retries
			recovered += r.Recovered
		}
		cells = append(cells, bench.Cell{Name: s.Strategy, Metrics: map[string]float64{
			"violations":     float64(viol),
			"baseline_reads": float64(s.BaselineReads),
			"clean_errors":   float64(cleanErrs),
			"ops_ok":         float64(opsOK),
			"retries":        float64(retries),
			"recovered":      float64(recovered),
		}})
	}
	return cells
}

// WriteJSON writes the bench wrapped in the versioned envelope.
func (b *ChaosBench) WriteJSON(w io.Writer) error {
	return bench.Write(w, "chaos", b, b.Cells())
}

// AllViolations flattens every recorded violation.
func (b *ChaosBench) AllViolations() []ChaosViolation {
	var out []ChaosViolation
	for _, s := range b.Strategies {
		if s.Control != nil {
			out = append(out, s.Control.Violations...)
		}
		for _, r := range s.Runs {
			out = append(out, r.Violations...)
		}
	}
	return out
}

// baselineRow is the fault-free answer of one retrieve, order-insensitive.
type baselineRow []int64

// RunChaos executes the sweep. The returned error covers harness-level
// failures only (a baseline that cannot even build); resilience
// failures are returned as violations in the bench.
func RunChaos(cfg ChaosConfig) (*ChaosBench, error) {
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = strategy.AllKinds
	}
	if cfg.Schedules < 1 {
		cfg.Schedules = 1
	}
	if cfg.Ops < 1 {
		cfg.Ops = 20
	}
	if cfg.NumTop < 1 {
		cfg.NumTop = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	bench := &ChaosBench{
		Config:    cfg.DB.WithDefaults().String(),
		Schedules: cfg.Schedules,
		Ops:       cfg.Ops,
		PrUpdate:  cfg.PrUpdate,
		NumTop:    cfg.NumTop,
		Plan:      cfg.Plan.WithDefaults(),
	}
	bench.Plan.Seed = cfg.FaultSeed
	for _, kind := range cfg.Strategies {
		sres, err := runChaosStrategy(cfg, kind)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", kind, err)
		}
		bench.Strategies = append(bench.Strategies, sres)
	}
	bench.Violations = len(bench.AllViolations())
	return bench, nil
}

func runChaosStrategy(cfg ChaosConfig, kind strategy.Kind) (*ChaosStrategy, error) {
	dbCfg := provisionFor(kind, cfg.DB.WithDefaults())

	// Fault-free baseline: the rows every schedule is held to.
	base, baseReads, err := chaosBaseline(cfg, kind, dbCfg)
	if err != nil {
		return nil, err
	}
	out := &ChaosStrategy{Strategy: kind.String(), BaselineReads: baseReads}

	// Control schedule: no faults installed. Rows must match the
	// baseline, and with the prefetcher off (no worker/consumer timing
	// races) the page-read count must be bit-identical — the regression
	// gate for "retry plumbing changed nothing when faults are off".
	control := scheduleSpec{cfg: cfg, kind: kind, dbCfg: dbCfg, base: base, seed: -1, faulted: false, wantReads: -1}
	if !dbCfg.PrefetchEnabled {
		control.wantReads = baseReads
	}
	out.Control = runChaosSchedule(control)

	for s := 0; s < cfg.Schedules; s++ {
		spec := scheduleSpec{cfg: cfg, kind: kind, dbCfg: dbCfg, base: base, seed: cfg.FaultSeed + int64(s), faulted: true, wantReads: -1}
		out.Runs = append(out.Runs, runChaosSchedule(spec))
	}
	return out, nil
}

// chaosBaseline runs the op sequence fault-free and records each
// retrieve's sorted values plus the measured-phase page reads.
func chaosBaseline(cfg ChaosConfig, kind strategy.Kind, dbCfg workload.Config) ([]baselineRow, int64, error) {
	db, err := workload.Build(dbCfg)
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	st, err := strategy.New(kind, db)
	if err != nil {
		return nil, 0, err
	}
	ops := db.GenSequence(cfg.Ops, cfg.PrUpdate, cfg.NumTop)
	if err := db.ResetCold(); err != nil {
		return nil, 0, err
	}
	startReads := db.Disk.Stats().Reads
	rows := make([]baselineRow, 0, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case workload.OpRetrieve:
			res, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
			if err != nil {
				return nil, 0, fmt.Errorf("baseline retrieve %d: %w", i, err)
			}
			rows = append(rows, sortedVals(res.Values))
		case workload.OpUpdate:
			if err := st.Update(db, op); err != nil {
				return nil, 0, fmt.Errorf("baseline update %d: %w", i, err)
			}
			rows = append(rows, nil)
		}
	}
	return rows, db.Disk.Stats().Reads - startReads, nil
}

type scheduleSpec struct {
	cfg       ChaosConfig
	kind      strategy.Kind
	dbCfg     workload.Config
	base      []baselineRow
	seed      int64
	faulted   bool
	wantReads int64 // control only: expected page reads, -1 = don't check
}

// runChaosSchedule executes one schedule under a watchdog. A schedule
// that outlives the timeout is reported as a deadlock (its goroutine,
// and the database it holds, are abandoned).
func runChaosSchedule(spec scheduleSpec) *ChaosRun {
	done := make(chan *ChaosRun, 1)
	go func() { done <- runChaosScheduleBody(spec) }()
	select {
	case run := <-done:
		return run
	case <-time.After(spec.cfg.Timeout):
		return &ChaosRun{Seed: spec.seed, Violations: []ChaosViolation{{
			Strategy: spec.kind.String(), Seed: spec.seed, OpIndex: -1,
			Kind: "deadlock", Detail: fmt.Sprintf("schedule still running after %s", spec.cfg.Timeout),
		}}}
	}
}

func runChaosScheduleBody(spec scheduleSpec) *ChaosRun {
	run := &ChaosRun{Seed: spec.seed}
	violate := func(op int, kind, detail string) {
		run.Violations = append(run.Violations, ChaosViolation{
			Strategy: spec.kind.String(), Seed: spec.seed, OpIndex: op, Kind: kind, Detail: detail,
		})
	}
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
	if err := db.ResetCold(); err != nil {
		violate(-1, "unattributed-error", "reset: "+err.Error())
		return run
	}
	startReads := db.Disk.Stats().Reads
	poolBefore := db.Pool.Stats()

	var plan *disk.FaultPlan
	if spec.faulted {
		pc := spec.cfg.Plan
		pc.Seed = spec.seed
		plan = disk.NewFaultPlan(pc)
		db.Disk.SetFault(plan.Fn())
	}

	// Tail sampling: with a slow log armed every op runs under a
	// collector-backed tracer (the schedule is single-threaded, so the
	// swap is safe and the captured deltas exact) and fault-plan stat
	// deltas ride along as span attributes.
	var slowLog *obs.SlowLog
	if spec.cfg.SlowLogSize > 0 {
		slowLog = obs.NewSlowLog(spec.cfg.SlowLogSize, spec.cfg.SlowThreshold)
		defer func() { run.SlowQueries = slowLog.Snapshot() }()
	}

	// diverged flips once an update fails: some targets may hold new
	// values and some old, so later rows are legitimately unlike the
	// baseline and comparison stops. Everything else still applies.
	diverged := false
	retrieveIdx := 0
	for i, op := range ops {
		var col *obs.Collector
		var faultsBefore disk.FaultStats
		if slowLog != nil {
			col = obs.NewCollector()
			db.AttachObs(obs.Options{Sink: col})
			if plan != nil {
				faultsBefore = plan.Stats()
			}
		}
		opStart := time.Now()
		vals, opErr, panicked := runChaosOp(db, st, op)
		if slowLog != nil {
			dur := time.Since(opStart)
			db.AttachObs(obs.Options{})
			name := "chaos.retrieve"
			if op.Kind == workload.OpUpdate {
				name = "chaos.update"
			}
			e := obs.SlowEntry{Name: name, Start: opStart, Duration: dur, Spans: col.Spans()}
			if plan != nil {
				fd := plan.Stats()
				e.Attrs = []obs.Attr{
					{Key: "fault.injected", Val: fd.Injected - faultsBefore.Injected},
					{Key: "fault.spikes", Val: fd.Spikes - faultsBefore.Spikes},
					{Key: "fault.transient", Val: fd.Transient - faultsBefore.Transient},
					{Key: "fault.permanent_hits", Val: fd.PermanentHits - faultsBefore.PermanentHits},
				}
			}
			if opErr != nil {
				e.Err = opErr.Error()
			}
			if panicked != "" {
				e.Err = "panic: " + panicked
			}
			slowLog.Offer(e)
		}
		if panicked != "" {
			violate(i, "panic", panicked)
			break
		}
		switch {
		case opErr == nil:
			run.OpsOK++
			if op.Kind == workload.OpRetrieve && !diverged {
				want := spec.base[i]
				run.RowsCompared++
				if !equalInt64(sortedVals(vals), want) {
					violate(i, "wrong-rows", fmt.Sprintf("retrieve %d returned %d values that differ from the fault-free baseline (%d values)",
						retrieveIdx, len(vals), len(want)))
				}
			}
		case disk.IsFault(opErr):
			run.CleanErrors++
			if op.Kind == workload.OpUpdate {
				run.FailedUpdates++
				diverged = true
			}
		default:
			violate(i, "unattributed-error", opErr.Error())
			if op.Kind == workload.OpUpdate {
				diverged = true
			}
		}
		if op.Kind == workload.OpRetrieve {
			retrieveIdx++
		}
		if n := db.Pool.PinnedCount(); n != 0 {
			violate(i, "pin-leak", fmt.Sprintf("%d pages still pinned after op", n))
			break // later ops would wedge on the leaked pins
		}
		if n := db.Pool.Prefetcher().StagedCount(); n != 0 {
			violate(i, "staged-leak", fmt.Sprintf("%d prefetched pages still staged after op", n))
			break
		}
	}

	// Snapshot the measured-phase reads before the post-schedule audit
	// (CheckInvariants probes the hash file — real I/O).
	endReads := db.Disk.Stats().Reads

	// Post-schedule: lift the faults and audit the survivors. The fault
	// plan's permanence lives in the plan, so a condemned page reads fine
	// again — the cache invariant sweep does real I/O safely.
	db.Disk.SetFault(nil)
	if plan != nil {
		run.Faults = plan.Stats()
	}
	if db.Cache != nil {
		if err := db.Cache.CheckInvariants(); err != nil {
			violate(-1, "cache-invariant", err.Error())
		}
		cs := db.Cache.Stats()
		run.CacheDegraded = cs.Degraded
		run.CacheOrphans = cs.Orphans
	}
	poolAfter := db.Pool.Stats().Sub(poolBefore)
	run.Retries = poolAfter.Retries
	run.Recovered = poolAfter.Recovered
	run.PrefetchErrs = db.Pool.Prefetcher().Stats().FetchErrs
	if spec.wantReads >= 0 {
		if got := endReads - startReads; got != spec.wantReads {
			violate(-1, "wrong-rows", fmt.Sprintf("control run read %d pages, baseline read %d — fault-free behaviour drifted", got, spec.wantReads))
		}
	}
	return run
}

// runChaosOp executes one operation, converting a panic into a report
// instead of tearing the harness down.
func runChaosOp(db *workload.DB, st strategy.Strategy, op workload.Op) (vals []int64, err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprintf("%v", r)
		}
	}()
	switch op.Kind {
	case workload.OpRetrieve:
		var res *strategy.Result
		res, err = st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
		if res != nil {
			vals = res.Values
		}
	case workload.OpUpdate:
		err = st.Update(db, op)
	}
	return vals, err, ""
}
