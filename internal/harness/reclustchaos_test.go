package harness

import (
	"testing"
	"time"

	"corep/internal/disk"
	"corep/internal/workload"
)

func TestReclustChaosFaultFree(t *testing.T) {
	v, err := RunReclustChaos(ChaosConfig{
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
	v, err := RunReclustChaos(ChaosConfig{
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
	v, err := RunReclustCrash(ChaosConfig{
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
