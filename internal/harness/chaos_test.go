package harness

import (
	"testing"

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
// (no batching — what every figure cell uses) and checks
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
