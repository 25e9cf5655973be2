package harness

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"corep/internal/bench"
)

// gridOf resolves a registered sweep's grid the way Sweep.Run does.
func gridOf(t testing.TB, name string, quick bool) SweepOpts {
	t.Helper()
	s, ok := FindSweep(name)
	if !ok {
		t.Fatalf("no sweep %q", name)
	}
	o, err := s.Resolve(SweepOpts{Quick: quick})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

var quickReports struct {
	sync.Mutex
	m map[string]Report
}

// quickReport runs a sweep's quick grid with default options — once per
// test binary, shared by every test that inspects it.
func quickReport(t *testing.T, name string) Report {
	t.Helper()
	quickReports.Lock()
	defer quickReports.Unlock()
	if r, ok := quickReports.m[name]; ok {
		return r
	}
	s, ok := FindSweep(name)
	if !ok {
		t.Fatalf("no sweep %q", name)
	}
	r, err := s.Run(SweepOpts{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if quickReports.m == nil {
		quickReports.m = map[string]Report{}
	}
	quickReports.m[name] = r
	return r
}

// TestSweepsQuick holds every registered sweep to the registry's
// contract: its quick grid runs, passes its own gate, and travels
// through the envelope under its own name with distinct named cells.
func TestSweepsQuick(t *testing.T) {
	for _, s := range Sweeps {
		t.Run(s.Name, func(t *testing.T) {
			rep := quickReport(t, s.Name)
			for _, v := range rep.Check() {
				t.Errorf("violation: %s", v)
			}
			var buf bytes.Buffer
			if err := s.Write(&buf, rep); err != nil {
				t.Fatal(err)
			}
			env, err := bench.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if env.Kind != s.Name {
				t.Errorf("envelope kind %q, want %q", env.Kind, s.Name)
			}
			if len(env.Cells) == 0 || len(env.Payload) == 0 {
				t.Fatalf("envelope has %d cells and %d payload bytes", len(env.Cells), len(env.Payload))
			}
			seen := map[string]bool{}
			for _, c := range env.Cells {
				if c.Name == "" || seen[c.Name] || len(c.Metrics) == 0 {
					t.Errorf("cell %q: empty, duplicate or without metrics", c.Name)
				}
				seen[c.Name] = true
			}
		})
	}
}

// TestSweepSeedIsTheDefault: a seed equal to the sweep's default is the
// same grid as no seed at all (no value of -seed or -latency means
// "unset", zero included), the value given is the value used, and a
// sweep with nothing to seed or no device wait to model says so — before
// anything runs. For the sweeps that replay exactly, the explicitly
// seeded run must also reproduce every gated cell value.
func TestSweepSeedIsTheDefault(t *testing.T) {
	for _, s := range Sweeps {
		t.Run(s.Name, func(t *testing.T) {
			def, other, noWait := s.Seed, s.Seed+1, time.Duration(0)
			plain, err := s.Resolve(SweepOpts{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if again, err := s.Resolve(plain); err != nil || again != plain {
				t.Fatalf("resolving resolved options: %+v, %v", again, err)
			}
			if o, err := s.Resolve(SweepOpts{Latency: &noWait}); (s.Latency == 0) != (err != nil) {
				t.Fatalf("default latency %s, -latency answered %v", s.Latency, err)
			} else if err == nil && *o.Latency != 0 {
				t.Fatalf("latency 0 given, %s used", *o.Latency)
			}
			seeded, err := s.Resolve(SweepOpts{Quick: true, Seed: &def})
			if s.Seed == 0 {
				if err == nil {
					t.Fatal("unseeded sweep accepted a seed")
				}
				return
			}
			if err != nil || *seeded.Seed != *plain.Seed {
				t.Fatalf("seed %d (the default) resolves to %d, no seed to %d (err %v)", def, *seeded.Seed, *plain.Seed, err)
			}
			if o, _ := s.Resolve(SweepOpts{Seed: &other}); *o.Seed != other {
				t.Fatalf("seed %d given, %d used", other, *o.Seed)
			}
			if s.Clocked || testing.Short() {
				return
			}
			rep, err := s.Run(SweepOpts{Quick: true, Seed: &def})
			if err != nil {
				t.Fatal(err)
			}
			want := quickReport(t, s.Name).Cells()
			for i, c := range rep.Cells() {
				for m, v := range c.Metrics {
					if bench.MetricDirection(m) != bench.Info && want[i].Metrics[m] != v {
						t.Errorf("%s %s: %v with -seed %d, %v without", c.Name, m, v, def, want[i].Metrics[m])
					}
				}
			}
		})
	}
}

// TestSweepGatesFire doctors a passing report of each gated sweep and
// expects its Check to say so: the gates are code like any other.
func TestSweepGatesFire(t *testing.T) {
	wal := func(fsyncsPerCommit ...float64) Report {
		s := &WALSweep{}
		for i, f := range fsyncsPerCommit {
			s.Points = append(s.Points, WALCell{Clients: 1 << i, Batch: 1, FsyncsPerCommit: f})
		}
		return s
	}
	reclust := func(static float64, rounds ...float64) Report {
		s := &ReclustSweep{StaticIOPerQuery: static}
		for i, io := range rounds {
			s.Rounds = append(s.Rounds, ReclustRound{Round: i, IOPerQuery: io})
		}
		return s
	}
	planner := func(phasePlanned, fullPlanned float64) Report {
		return &PlannerSweepResult{
			Arms:            []string{"DFS", "BFS", "PLANNED"},
			Phases:          []PlannerPhaseResult{{Name: "narrow", IOPerQuery: map[string]float64{"DFS": 10, "BFS": 20, "PLANNED": phasePlanned}}},
			TotalIOPerQuery: map[string]float64{"DFS": 10, "BFS": 20, "PLANNED": fullPlanned},
		}
	}
	broken := []Violation{{Strategy: "DFS", Seed: 1000, OpIndex: 3, Kind: "wrong-rows", Detail: "doctored"}}
	chaos := func(v []Violation) Report {
		return &ChaosBench{Strategies: []*ChaosStrategy{{Strategy: "DFS", Control: &ChaosRun{}, Runs: []*ChaosRun{{scheduleLog: scheduleLog{Violations: v}}}}}}
	}
	crash := func(v []Violation) Report {
		return &CrashBench{Strategies: []*CrashStrategy{{Strategy: "DFS", Runs: []*CrashRun{{scheduleLog: scheduleLog{Violations: v}}}}}}
	}
	txnChaos := func(v []Violation) Report {
		return &ScheduleBench[*scheduleLog]{Strategies: []*StrategyRuns[*scheduleLog]{{Strategy: "DFS", Runs: []*scheduleLog{{Violations: v}}}}}
	}
	for _, tc := range []struct {
		name string
		rep  Report
		want int
	}{
		{"wal passes", wal(1, 0.6, 0.3), 0},
		{"wal fsyncs/commit flat", wal(1, 0.6, 0.6), 1},
		{"reclust passes", reclust(2, 30, 10, 2.2), 0},
		{"reclust round not below the last", reclust(2, 30, 10, 10, 2.2), 1},
		{"reclust final > 1.15 x static", reclust(2, 30, 10, 2.4), 1},
		{"reclust one round only", reclust(2, 30), 1},
		{"planner passes", planner(10.9, 9.9), 0},
		{"planner phase > 1.10 x best static", planner(11.1, 9.9), 1},
		{"planner full run only ties the best static", planner(10.9, 10), 1},
		{"chaos passes", chaos(nil), 0},
		{"chaos violation", chaos(broken), 1},
		{"crash passes", crash(nil), 0},
		{"crash violation", crash(broken), 1},
		{"txnchaos violation", txnChaos(broken), 1},
	} {
		if got := tc.rep.Check(); len(got) != tc.want {
			t.Errorf("%s: %d violation(s), want %d: %v", tc.name, len(got), tc.want, got)
		}
	}
}
