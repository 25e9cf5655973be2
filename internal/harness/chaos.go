// Differential chaos harness: every strategy is driven through seeded
// fault schedules and held to one contract — a run either returns rows
// identical to the fault-free baseline or surfaces a clean error
// attributed to the injector (errors.Is(err, disk.ErrFaulted)). A
// panic, a hang, a leaked pin, a staged prefetch page left behind, a
// broken cache invariant, or a silently wrong answer is a violation.
package harness

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// ChaosConfig parameterizes one differential sweep of strategies ×
// seeded schedules: fault schedules (RunChaos), kill schedules
// (RunCrashChaos, RunReclustCrash) or a concurrent hammer (RunTxnChaos,
// RunReclustChaos).
type ChaosConfig struct {
	DB         workload.Config
	Strategies []strategy.Kind `json:"-"` // named in the results

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

	// ConcurrentUpdaters sizes the atomicity hammers (RunTxnChaos,
	// RunReclustChaos): that many writer goroutines commit sentinel
	// batches, Ops rounds each, while as many readers audit every
	// snapshot for torn or lost versions.
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

// faultPlan is the config's fault mix seeded for one schedule.
func (c ChaosConfig) faultPlan(seed int64) *disk.FaultPlan {
	pc := c.Plan
	pc.Seed = seed
	return disk.NewFaultPlan(pc)
}

// scheduleTimeout bounds one seeded schedule; outliving it is a deadlock
// violation.
const scheduleTimeout = 120 * time.Second

// chaosGrid is the chaos sweep (and, through ConcurrentUpdaters, the
// txnchaos hammer): all six strategies on a database small enough that
// the full grid's ten schedules each finish in seconds, a mixed
// workload, and fault rates that fire a handful of times per schedule.
// Batched probes and the prefetcher are enabled — the concurrent code
// paths are exactly what fault coverage is for. The seed is the fault
// seed base; the database is the same on every run.
func chaosGrid(o SweepOpts) ChaosConfig {
	return ChaosConfig{
		DB: workload.Config{
			NumParents:      400,
			Seed:            42,
			ProbeBatch:      true,
			PrefetchEnabled: true,
		},
		Strategies:         strategy.AllKinds,
		Schedules:          pick(o, 10, 3),
		FaultSeed:          *o.Seed,
		Ops:                30,
		PrUpdate:           0.25,
		NumTop:             8,
		ConcurrentUpdaters: 3,
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

func chaosSweep(o SweepOpts) (Report, error) { return RunChaos(chaosGrid(o)) }

// scheduleLog is what every seeded schedule books, whichever harness
// drives it.
type scheduleLog struct {
	Seed        int64       `json:"seed"`
	OpsOK       int         `json:"ops_ok"`
	CleanErrors int         `json:"clean_errors"` // attributed fault errors surfaced to the caller
	Violations  []Violation `json:"violations,omitempty"`

	strategy string
}

func (l *scheduleLog) log() *scheduleLog { return l }

func (l *scheduleLog) violate(op int, kind, detail string) {
	l.Violations = append(l.Violations, Violation{
		Strategy: l.strategy, Seed: l.Seed, OpIndex: op, Kind: kind, Detail: detail,
	})
}

// ChaosRun is the outcome of one schedule (one strategy, one seed).
type ChaosRun struct {
	scheduleLog
	FailedUpdates int `json:"failed_updates"`
	RowsCompared  int `json:"rows_compared"` // retrieves checked against the baseline

	Faults        disk.FaultStats `json:"faults"`
	Retries       int64           `json:"buffer_retries"`
	Recovered     int64           `json:"buffer_recovered"`
	CacheDegraded int64           `json:"cache_degraded"`
	CacheOrphans  int64           `json:"cache_orphans"`
	PrefetchErrs  int64           `json:"prefetch_fetch_errors"`

	// SlowQueries is the schedule's tail sample (ChaosConfig.SlowLogSize
	// slowest operations, exact span trees, fault-plan attr deltas).
	SlowQueries []obs.SlowEntry `json:"slow_queries,omitempty"`
}

// tally adds the schedule's counts to its strategy's cell. Clean-error
// and retry counts legitimately wander with the fault mix and stay
// informational.
func (r *ChaosRun) tally(m map[string]float64) {
	m["clean_errors"] += float64(r.CleanErrors)
	m["ops_ok"] += float64(r.OpsOK)
	m["retries"] += float64(r.Retries)
	m["recovered"] += float64(r.Recovered)
}

// scheduleRun is one seeded schedule's record: the shared log plus what
// its harness adds, which it sums into its strategy's cell.
type scheduleRun interface {
	comparable
	log() *scheduleLog
	tally(m map[string]float64)
}

// StrategyRuns is one strategy's row of a schedule sweep.
type StrategyRuns[R scheduleRun] struct {
	Strategy string `json:"strategy"`
	Config   string `json:"config"` // as provisioned for the strategy
	// BaselineReads and Control are the chaos sweep's: the fault-free
	// baseline's page reads and the fault-free differential run.
	BaselineReads int64 `json:"baseline_reads,omitempty"`
	Control       R     `json:"control,omitempty"`
	Runs          []R   `json:"runs"`
}

// all is every schedule of the row, the control first.
func (s *StrategyRuns[R]) all() []R {
	var none R
	if s.Control == none {
		return s.Runs
	}
	return append([]R{s.Control}, s.Runs...)
}

// ScheduleBench is the payload of the chaos, crash and txnchaos sweeps:
// strategies × seeded schedules under one config.
type ScheduleBench[R scheduleRun] struct {
	Config     ChaosConfig        `json:"config"`
	Strategies []*StrategyRuns[R] `json:"strategies"`
	Violations int                `json:"violations"`
}

type (
	ChaosBench    = ScheduleBench[*ChaosRun]
	ChaosStrategy = StrategyRuns[*ChaosRun]
)

// Cells flattens the sweep into one envelope cell per strategy.
// Violations are deterministic (seeded schedules) and gate; so do chaos's
// baseline reads, which replay exactly with the prefetcher off and move
// by a page or two with it on; the rest is each run type's tally.
func (b *ScheduleBench[R]) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, s := range b.Strategies {
		m := map[string]float64{"violations": 0}
		if s.BaselineReads > 0 {
			m["baseline_reads"] = float64(s.BaselineReads)
		}
		for _, r := range s.all() {
			m["violations"] += float64(len(r.log().Violations))
			r.tally(m)
		}
		cells = append(cells, bench.Cell{Name: s.Strategy, Metrics: m})
	}
	return cells
}

// Check returns every violation any schedule recorded: the sweep's gate
// is that there are none.
func (b *ScheduleBench[R]) Check() []Violation {
	var out []Violation
	for _, s := range b.Strategies {
		for _, r := range s.all() {
			out = append(out, r.log().Violations...)
		}
	}
	return out
}

// runSchedules provisions the database for each strategy in turn and
// has row fill in that strategy's schedules. The returned error covers
// harness-level failures only (a baseline that cannot even build);
// broken guarantees come back as violations in the bench.
func runSchedules[R scheduleRun](cfg ChaosConfig, kinds []strategy.Kind, row func(strategy.Kind, workload.Config, *StrategyRuns[R]) error) (*ScheduleBench[R], error) {
	b := &ScheduleBench[R]{Config: cfg}
	for _, kind := range kinds {
		dbCfg := provisionFor(kind, cfg.DB.WithDefaults())
		s := &StrategyRuns[R]{Strategy: kind.String(), Config: dbCfg.String()}
		if err := row(kind, dbCfg, s); err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		b.Strategies = append(b.Strategies, s)
	}
	b.Violations = len(b.Check())
	return b, nil
}

// baselineRow is the fault-free answer of one retrieve, order-insensitive.
type baselineRow []int64

// RunChaos executes the fault-schedule sweep.
func RunChaos(cfg ChaosConfig) (*ChaosBench, error) {
	return runSchedules(cfg, cfg.Strategies, func(kind strategy.Kind, dbCfg workload.Config, out *ChaosStrategy) error {
		// Fault-free baseline: the rows every schedule is held to.
		base, baseReads, err := chaosBaseline(cfg, kind, dbCfg)
		if err != nil {
			return err
		}
		out.BaselineReads = baseReads

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
		return nil
	})
}

// subject is one freshly built database with its strategy and the op
// sequence its generator yields — the same sequence for every build of
// one config, which is what lets a schedule be held to a baseline or a
// control built beside it.
type subject struct {
	db  *workload.DB
	st  strategy.Strategy
	ops []workload.Op
}

func openSubject(kind strategy.Kind, dbCfg workload.Config, ops int, prUpdate float64, numTop int) (*subject, error) {
	db, err := workload.Build(dbCfg)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	st, err := strategy.New(kind, db)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("strategy: %w", err)
	}
	return &subject{db: db, st: st, ops: db.GenSequence(ops, prUpdate, numTop)}, nil
}

// fullSweeps is one full-range retrieve per ret attribute: every object
// of the database read back.
func fullSweeps(db *workload.DB) []workload.Op {
	var qs []workload.Op
	for _, attr := range []int{workload.FieldRet1, workload.FieldRet2, workload.FieldRet3} {
		qs = append(qs, workload.Op{Kind: workload.OpRetrieve, Lo: 0, Hi: int64(db.Cfg.NumParents - 1), AttrIdx: attr})
	}
	return qs
}

// compareWithControl runs each query on the subject and on its control
// and requires the same rows — value for value in order, or as
// multisets when sorted is set. It returns how many results it compared;
// an operation that fails or panics on either side is a violation and
// ends the comparison.
func compareWithControl(s, ctl *subject, queries []workload.Op, sorted bool, violate func(kind, detail string)) int {
	for qi, q := range queries {
		var rows [2][]int64
		for side, sub := range []*subject{s, ctl} {
			vals, err := runChaosOp(sub.db, sub.st, q)
			if err != nil {
				kind := "unattributed-error"
				if panicked(err) {
					kind = "panic"
				}
				violate(kind, fmt.Sprintf("retrieve %d (control: %v): %v", qi, side == 1, err))
				return qi
			}
			if sorted {
				vals = sortedVals(vals)
			}
			rows[side] = vals
		}
		if !slices.Equal(rows[0], rows[1]) {
			violate("wrong-rows", fmt.Sprintf("retrieve %d [%d,%d] attr=%d: %d values differ from the control's %d",
				qi, q.Lo, q.Hi, q.AttrIdx, len(rows[0]), len(rows[1])))
		}
	}
	return len(queries)
}

// chaosBaseline runs the op sequence fault-free and records each
// retrieve's sorted values plus the measured-phase page reads.
func chaosBaseline(cfg ChaosConfig, kind strategy.Kind, dbCfg workload.Config) ([]baselineRow, int64, error) {
	s, err := openSubject(kind, dbCfg, cfg.Ops, cfg.PrUpdate, cfg.NumTop)
	if err != nil {
		return nil, 0, err
	}
	defer s.db.Close()
	if err := s.db.ResetCold(); err != nil {
		return nil, 0, err
	}
	startReads := s.db.Disk.Stats().Reads
	rows := make([]baselineRow, 0, len(s.ops))
	for i, op := range s.ops {
		vals, err := runChaosOp(s.db, s.st, op)
		if err != nil {
			return nil, 0, fmt.Errorf("baseline op %d: %w", i, err)
		}
		if op.Kind == workload.OpUpdate {
			rows = append(rows, nil)
		} else {
			rows = append(rows, sortedVals(vals))
		}
	}
	return rows, s.db.Disk.Stats().Reads - startReads, nil
}

// scheduleSpec is one schedule of a chaos or a crash sweep; the last
// three fields are the chaos sweep's.
type scheduleSpec struct {
	cfg       ChaosConfig
	kind      strategy.Kind
	dbCfg     workload.Config
	seed      int64
	base      []baselineRow
	faulted   bool
	wantReads int64 // control only: expected page reads, -1 = don't check
}

// underWatchdog runs one schedule body on a fresh run record (wrap makes
// the harness's run type around the shared log). A body that outlives
// scheduleTimeout is reported as a deadlock — on a second fresh record,
// because the abandoned goroutine (and the database it holds) still owns
// the first.
func underWatchdog[R scheduleRun](spec scheduleSpec, wrap func(scheduleLog) R, body func(scheduleSpec, R)) R {
	fresh := func() R { return wrap(scheduleLog{Seed: spec.seed, strategy: spec.kind.String()}) }
	run := fresh()
	done := make(chan struct{})
	go func() { body(spec, run); close(done) }()
	select {
	case <-done:
	case <-time.After(scheduleTimeout):
		run = fresh()
		run.log().violate(-1, "deadlock", fmt.Sprintf("schedule still running after %s", scheduleTimeout))
	}
	return run
}

func runChaosSchedule(spec scheduleSpec) *ChaosRun {
	return underWatchdog(spec, func(l scheduleLog) *ChaosRun { return &ChaosRun{scheduleLog: l} }, runChaosScheduleBody)
}

// opOutcome classifies one guarded operation.
type opOutcome int

const (
	opOK       opOutcome = iota
	opFaulted            // clean error attributed to the injector
	opBroken             // unattributed error: a violation, the schedule may go on
	opPanicked           // a violation, and the schedule cannot go on
)

// exec runs one operation against the subject and books it: counted as
// ok, counted as a clean injector-attributed error, or recorded as a
// violation.
func (l *scheduleLog) exec(i int, s *subject, op workload.Op) ([]int64, error, opOutcome) {
	vals, err := runChaosOp(s.db, s.st, op)
	switch {
	case panicked(err):
		l.violate(i, "panic", err.Error())
		return nil, err, opPanicked
	case err == nil:
		l.OpsOK++
		return vals, nil, opOK
	case disk.IsFault(err):
		l.CleanErrors++
		return nil, err, opFaulted
	default:
		l.violate(i, "unattributed-error", err.Error())
		return nil, err, opBroken
	}
}

func runChaosScheduleBody(spec scheduleSpec, run *ChaosRun) {
	s, err := openSubject(spec.kind, spec.dbCfg, spec.cfg.Ops, spec.cfg.PrUpdate, spec.cfg.NumTop)
	if err == nil {
		defer s.db.Close()
		err = s.db.ResetCold()
	}
	if err != nil {
		run.violate(-1, "unattributed-error", err.Error())
		return
	}
	db := s.db
	startReads := db.Disk.Stats().Reads
	poolBefore := db.Pool.Stats()

	var plan *disk.FaultPlan
	if spec.faulted {
		plan = spec.cfg.faultPlan(spec.seed)
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
	for i, op := range s.ops {
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
		vals, opErr, outcome := run.exec(i, s, op)
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
			slowLog.Offer(e)
		}
		if outcome == opPanicked {
			break
		}
		switch {
		case outcome != opOK && op.Kind == workload.OpUpdate:
			if outcome == opFaulted {
				run.FailedUpdates++
			}
			diverged = true
		case outcome == opOK && op.Kind == workload.OpRetrieve && !diverged:
			want := spec.base[i]
			run.RowsCompared++
			if !slices.Equal(sortedVals(vals), want) {
				run.violate(i, "wrong-rows", fmt.Sprintf("retrieve %d returned %d values that differ from the fault-free baseline (%d values)",
					retrieveIdx, len(vals), len(want)))
			}
		}
		if op.Kind == workload.OpRetrieve {
			retrieveIdx++
		}
		if n := db.Pool.PinnedCount(); n != 0 {
			run.violate(i, "pin-leak", fmt.Sprintf("%d pages still pinned after op", n))
			break // later ops would wedge on the leaked pins
		}
		if n := db.Pool.Prefetcher().StagedCount(); n != 0 {
			run.violate(i, "staged-leak", fmt.Sprintf("%d prefetched pages still staged after op", n))
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
			run.violate(-1, "cache-invariant", err.Error())
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
			run.violate(-1, "wrong-rows", fmt.Sprintf("control run read %d pages, baseline read %d — fault-free behaviour drifted", got, spec.wantReads))
		}
	}
}

// panicError is a panic caught under an operation, as that operation's
// error.
type panicError struct{ value any }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.value) }

func panicked(err error) bool {
	var p panicError
	return errors.As(err, &p)
}

// runChaosOp executes one operation, converting a panic into an error
// instead of tearing the harness down.
func runChaosOp(db *workload.DB, st strategy.Strategy, op workload.Op) (vals []int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			vals, err = nil, panicError{r}
		}
	}()
	if op.Kind == workload.OpUpdate {
		return nil, st.Update(db, op)
	}
	res, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
	if res != nil {
		vals = res.Values
	}
	return vals, err
}
