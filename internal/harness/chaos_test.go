package harness

import (
	"testing"
	"time"

	"corep/internal/disk"
	"corep/internal/strategy"
	"corep/internal/workload"
)

func TestChaosSmoke(t *testing.T) {
	bench := quickReport(t, "chaos").(*ChaosBench)
	for _, v := range bench.Check() {
		t.Errorf("violation: %s", v)
	}
	// The sweep must actually have exercised faults, or the contract was
	// tested vacuously.
	var injected, retries int64
	for _, s := range bench.Strategies {
		for _, r := range s.Runs {
			injected += r.Faults.Injected
			retries += r.Retries
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected across the whole sweep — rates too low for the op volume")
	}
	if retries == 0 {
		t.Error("no buffer retries recorded — transient faults never reached the pool")
	}
}

// TestChaosControlBitIdentity runs the paper-fidelity configuration
// (no batching, no prefetch — what every figure cell uses) and checks
// the control schedule's page reads are bit-identical to the baseline,
// proving the retry/degradation plumbing changes nothing with faults
// off.
func TestChaosControlBitIdentity(t *testing.T) {
	cfg := chaosGrid(gridOf(t, "chaos", true))
	cfg.DB = workload.Config{NumParents: 400, Seed: 42}
	cfg.Schedules = 1
	bench, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range bench.Strategies {
		if s.Control == nil {
			t.Fatalf("%s: no control run", s.Strategy)
		}
		for _, v := range s.Control.Violations {
			t.Errorf("control violation: %s", v)
		}
		if s.BaselineReads == 0 {
			t.Errorf("%s: baseline read no pages", s.Strategy)
		}
	}
}

// TestChaosSlowLogAttributesSpikes is the tail-attribution acceptance
// check: a schedule whose only fault mode is latency spikes must produce
// slow-log entries whose span I/O deltas and fault.spikes attributes
// finger the injector — the slowest retained ops are the spiked ones.
func TestChaosSlowLogAttributesSpikes(t *testing.T) {
	cfg := ChaosConfig{
		DB:         workload.Config{NumParents: 400, Seed: 42, ProbeBatch: true},
		Strategies: []strategy.Kind{strategy.DFS},
		Schedules:  1,
		FaultSeed:  77,
		Ops:        30,
		PrUpdate:   0.2,
		NumTop:     8,
		Plan: disk.FaultPlanConfig{
			PSpike:   0.02,
			SpikeDur: 10 * time.Millisecond,
		},
		SlowLogSize:   8,
		SlowThreshold: 5 * time.Millisecond,
	}
	bench, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bench.Check() {
		t.Errorf("violation: %s", v)
	}
	st := bench.Strategies[0]
	run := st.Runs[0]
	if run.Faults.Spikes == 0 {
		t.Fatal("plan served no spikes — attribution untested (raise PSpike)")
	}
	if len(run.SlowQueries) == 0 {
		t.Fatal("no slow queries captured despite SlowLogSize")
	}
	// The control schedule runs fault-free but still captures.
	if st.Control == nil || len(st.Control.SlowQueries) == 0 {
		t.Fatal("control schedule captured nothing")
	}

	// The slowest retained entry must be a spiked op: over the 5ms SLO
	// (one 10ms spike dwarfs every unspiked op), attributed to the
	// injector via fault.spikes, and carrying a span tree whose root-level
	// I/O deltas are non-empty (the spike happened inside measured I/O).
	top := run.SlowQueries[0]
	if !top.OverSLO {
		t.Fatalf("slowest entry (%s) under the 5ms threshold", top.Duration)
	}
	if spikes, ok := top.Attr("fault.spikes"); !ok || spikes == 0 {
		t.Fatalf("slowest entry not attributed to the spike injector: attrs=%v", top.Attrs)
	}
	if len(top.Spans) == 0 || top.IO() == 0 {
		t.Fatalf("slowest entry carries no span I/O: %+v", top)
	}
	// And conversely: every over-SLO entry must carry spike attribution —
	// nothing else in this schedule can cost 5ms.
	for _, e := range run.SlowQueries {
		if !e.OverSLO {
			continue
		}
		if spikes, _ := e.Attr("fault.spikes"); spikes == 0 {
			t.Errorf("over-SLO entry %s (%s) has no spike attributed", e.Name, e.Duration)
		}
	}

	// Tail sampling must not change the differential contract's I/O:
	// traced control reads match the untraced baseline (DFS runs without
	// the prefetcher, so control bit-identity applies).
	if len(st.Control.Violations) != 0 {
		t.Errorf("traced control drifted: %v", st.Control.Violations)
	}
}
