package corep

import (
	"corep/internal/disk"
)

// FaultConfig seeds deterministic fault injection on the database's
// disk. Rates are probabilities per page transfer; zero rates inject
// nothing. The same seed replays the same fault schedule, so a failing
// interaction can be reproduced exactly.
type FaultConfig struct {
	Seed int64
	// TransientRate injects retryable read/write errors (short episodes
	// the buffer pool's retry policy normally rides out).
	TransientRate float64
	// PermanentRate condemns the touched page for the rest of the run;
	// every later access fails with an attributed error.
	PermanentRate float64
	// TornRate makes a write persist only the first half of the page
	// while still reporting failure.
	TornRate float64
}

// FaultStats reports what an installed fault plan injected and how the
// storage layer absorbed it.
type FaultStats struct {
	Ops       int64 // disk operations observed by the plan
	Injected  int64 // injection decisions
	Transient int64 // transient failures returned
	Permanent int64 // failures from condemned pages
	Torn      int64 // torn writes
	Retries   int64 // buffer-pool retries of transient failures
	Recovered int64 // operations that succeeded after retrying
}

// SetFaultPlan installs a seeded fault plan on the database's disk, or
// clears it when cfg is nil. It reports false on backends without
// fault injection. Queries hitting injected faults return errors;
// transient ones are usually absorbed by the buffer pool's retry
// policy (see Snapshot.Faults).
func (d *Database) SetFaultPlan(cfg *FaultConfig) bool {
	f, ok := d.core.Disk.(interface{ SetFault(disk.FaultFunc) })
	if !ok {
		return false
	}
	if cfg == nil {
		f.SetFault(nil)
		d.faults = nil
		return true
	}
	plan := disk.NewFaultPlan(disk.FaultPlanConfig{
		Seed:       cfg.Seed,
		PTransient: cfg.TransientRate,
		PPermanent: cfg.PermanentRate,
		PTorn:      cfg.TornRate,
	})
	d.faults = plan
	f.SetFault(plan.Fn())
	return true
}

// faultStats returns the installed plan's injection counters (zero when
// no plan is installed) alongside the buffer pool's retry counters.
func (d *Database) faultStats() FaultStats {
	var out FaultStats
	if d.faults != nil {
		s := d.faults.Stats()
		out = FaultStats{
			Ops:       s.Ops,
			Injected:  s.Injected,
			Transient: s.Transient,
			Permanent: s.PermanentHits,
			Torn:      s.Torn,
		}
	}
	ps := d.core.Pool.Stats()
	out.Retries = ps.Retries
	out.Recovered = ps.Recovered
	return out
}
