package harness

import (
	"fmt"
	"io"
	"time"

	"corep/internal/bench"
)

// Violation is one broken guarantee: a resilience or durability
// contract breached by a seeded schedule (Strategy, Seed and OpIndex
// say where), or a sweep's acceptance gate missed (Kind "gate",
// Strategy naming the offending cell).
type Violation struct {
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	OpIndex  int    `json:"op_index"`
	Kind     string `json:"kind"` // gate | panic | deadlock | wrong-rows | unattributed-error | pin-leak | cache-invariant | lost-commit | unknown-commit | rollback | torn-version | lost-update
	Detail   string `json:"detail"`
}

func (v Violation) String() string {
	if v.Kind == "gate" {
		return v.Strategy + ": " + v.Detail
	}
	return fmt.Sprintf("%s seed=%d op=%d %s: %s", v.Strategy, v.Seed, v.OpIndex, v.Kind, v.Detail)
}

// gate builds an acceptance-gate violation naming the cell it is about.
func gate(cell, format string, args ...any) Violation {
	return Violation{Strategy: cell, OpIndex: -1, Kind: "gate", Detail: fmt.Sprintf(format, args...)}
}

// Report is what a sweep run returns: the flattened cells that go in
// the envelope (and are the run's printed summary), and the violations
// of the sweep's own gate — empty on a passing run. The report itself
// is the envelope's payload.
type Report interface {
	Cells() []bench.Cell
	Check() []Violation
}

// SweepOpts is everything a caller may vary about a registered sweep.
// Sweep.Resolve fills the nil fields from the sweep's defaults; the
// sweeps themselves only ever see resolved options.
type SweepOpts struct {
	// Quick selects the reduced grid CI's smoke jobs and the tests run;
	// the default is the full grid the checked-in baseline was made with.
	Quick bool
	// Seed and Latency override the sweep's defaults when non-nil: any
	// value given is the value used, zero included.
	Seed    *int64
	Latency *time.Duration
}

// pick returns the full grid's value, or the quick grid's.
func pick[T any](o SweepOpts, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// Sweep is a registered benchmark sweep. Name is also the envelope
// kind and names the baseline, BENCH_<Name>.json.
type Sweep struct {
	Name  string
	About string
	// Clocked sweeps are dominated by wall clock and gate against their
	// baseline at 50%; the others count pages, commits and violations,
	// replay exactly from their seed, and gate at 10%.
	Clocked bool
	// Seed is the default seed; 0 means the sweep draws nothing from a
	// seed and refuses one.
	Seed int64
	// Latency is the default simulated device latency; 0 means the sweep
	// models no device wait (or sweeps it itself) and refuses one.
	Latency time.Duration

	run func(SweepOpts) (Report, error)
}

// Sweeps lists every sweep, beside Experiments: the figures reproduce
// the paper, the sweeps hold the subsystems added since to their gates.
var Sweeps = []Sweep{
	{"chaos", "every strategy under seeded disk-fault schedules: rows match the fault-free baseline or the error names the injector", false, 1000, 0, chaosSweep},
	{"txnchaos", "concurrent sentinel updaters against snapshot auditors on the versioned store: no torn or lost versions", false, 1000, 0, txnChaosSweep},
	{"crash", "every strategy under seeded kill-and-reopen schedules with torn writes: every acknowledged commit survives", false, 4242, 0, crashSweep},
	{"reclust", "online reclustering on a scattered database: io/query falls every round and lands on the static cell", false, 9, 0, reclustSweep},
	{"planner", "cost-based planner against every static strategy over a shifting mix: within 10% per phase, best overall", false, 7, 0, plannerSweep},
	{"wal", "group commit, clients × batch: fsyncs per commit fall as committers are added", true, 0, 0, walSweep},
	{"throughput", "concurrent serving, sharded pool vs one shard, 1-8 clients", true, 1, 100 * time.Microsecond, throughputSweep},
	{"txn", "versioned vs latched serving, skew × update rate × clients", true, 1, 100 * time.Microsecond, txnSweep},
}

// FindSweep resolves a sweep by name.
func FindSweep(name string) (Sweep, bool) {
	for _, s := range Sweeps {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}

// Resolve fills o's unset seed and latency from the sweep's defaults. A
// sweep that draws nothing from a seed, or models no device wait, has no
// default for it and refuses a value — so resolving twice changes nothing.
func (s Sweep) Resolve(o SweepOpts) (SweepOpts, error) {
	switch {
	case o.Seed != nil && s.Seed == 0:
		return o, fmt.Errorf("sweep %s draws nothing from a seed", s.Name)
	case o.Latency != nil && s.Latency == 0:
		return o, fmt.Errorf("sweep %s takes no device latency", s.Name)
	}
	if o.Seed == nil && s.Seed != 0 {
		o.Seed = &s.Seed
	}
	if o.Latency == nil && s.Latency != 0 {
		o.Latency = &s.Latency
	}
	return o, nil
}

// Run executes the sweep's quick or full grid. The error covers the
// harness failing to run at all; a run that completes and misses its
// gate reports that through Report.Check.
func (s Sweep) Run(o SweepOpts) (Report, error) {
	o, err := s.Resolve(o)
	if err != nil {
		return nil, err
	}
	return s.run(o)
}

// Write stamps the report into the sweep's envelope — the one way a
// BENCH_*.json is produced.
func (s Sweep) Write(w io.Writer, r Report) error {
	return bench.Write(w, s.Name, r, r.Cells())
}
