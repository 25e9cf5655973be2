package bench

import (
	"bytes"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func env(t *testing.T, kind string, cells ...Cell) *Envelope {
	t.Helper()
	e, err := New(kind, map[string]string{"note": "test payload"}, cells)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := env(t, "throughput", Cell{Name: "sharded/K=8", Metrics: map[string]float64{"qps": 80, "p99_ns": 1.7e8}})
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Kind != "throughput" {
		t.Fatalf("round trip lost header: %+v", got)
	}
	if got.Timestamp.IsZero() {
		t.Fatal("timestamp not stamped")
	}
	if got.GoVersion != runtime.Version() || got.MaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("host stamp lost: go %q, GOMAXPROCS %d", got.GoVersion, got.MaxProcs)
	}
	// A test binary embeds no VCS stamp, so inside a checkout the rev
	// can only have come from the git fallback.
	if exec.Command("git", "rev-parse", "HEAD").Run() == nil {
		if !regexp.MustCompile(`^[0-9a-f]{40}$`).MatchString(got.GitRev) {
			t.Fatalf("git_rev %q inside a checkout, want a 40-hex revision", got.GitRev)
		}
	}
	c := got.Cell("sharded/K=8")
	if c == nil || c.Metrics["qps"] != 80 {
		t.Fatalf("round trip lost cells: %+v", got.Cells)
	}
	if len(got.Payload) == 0 || !strings.Contains(string(got.Payload), "test payload") {
		t.Fatalf("payload lost: %s", got.Payload)
	}
}

func TestReadRejectsUnversioned(t *testing.T) {
	// A legacy, pre-envelope artifact: plain bench JSON.
	if _, err := Read(strings.NewReader(`{"config":"x","sharded":[]}`)); err == nil {
		t.Fatal("unversioned file accepted")
	} else if !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := Read(strings.NewReader(`{"schema_version":99,"kind":"x"}`)); err == nil {
		t.Fatal("future schema accepted")
	}
}

func TestMetricDirection(t *testing.T) {
	for name, want := range map[string]Direction{
		"qps":          HigherBetter,
		"retrieve_qps": HigherBetter,
		"update_qps":   HigherBetter,
		"speedup":      HigherBetter,
		// prefetch's sync/prefetch ratio is two wall clocks: reported,
		// never gated (planner's "speedup" is a ratio of counts).
		"wall_speedup": Info,
		// The txn sweep's counters are deliberately named off the
		// lower-better suffixes ("snapshots", not "snapshot_reads"):
		// they are volume indicators, not costs, and must never gate.
		"snapshots":          Info,
		"latch_waits":        Info,
		"versions_installed": Info,
		"drain_applied":      Info,
		"p99_ns":             LowerBetter,
		"p50_ns":             LowerBetter,
		"io_per_query":       LowerBetter,
		"sync_reads":         LowerBetter,
		"baseline_reads":     LowerBetter,
		"total_io":           LowerBetter,
		"violations":         LowerBetter,
		"slo_violations":     LowerBetter,
		"failed":             LowerBetter,
		"clean_errors":       Info,
		"retries":            Info,
	} {
		if got := MetricDirection(name); got != want {
			t.Errorf("MetricDirection(%q) = %s, want %s", name, got, want)
		}
	}
}

// TestCompareFlagsP99Regression is the acceptance check: a synthetic 20%
// p99 regression between two envelopes must be flagged at the 10% gate.
func TestCompareFlagsP99Regression(t *testing.T) {
	old := env(t, "throughput", Cell{Name: "sharded/K=8", Metrics: map[string]float64{"qps": 80, "p99_ns": 100e6}})
	new_ := env(t, "throughput", Cell{Name: "sharded/K=8", Metrics: map[string]float64{"qps": 80, "p99_ns": 120e6}})
	d, err := Compare(old, new_, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	regs := d.Regressions()
	if len(regs) != 1 || regs[0].Metric != "p99_ns" {
		t.Fatalf("regressions = %v, want exactly the p99_ns cell", regs)
	}
	if want := 0.20; regs[0].Change < want-1e-9 || regs[0].Change > want+1e-9 {
		t.Fatalf("change = %v, want +20%%", regs[0].Change)
	}

	// The same movement inside the gate passes.
	okNew := env(t, "throughput", Cell{Name: "sharded/K=8", Metrics: map[string]float64{"qps": 80, "p99_ns": 105e6}})
	d, err = Compare(old, okNew, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions()) != 0 {
		t.Fatalf("5%% movement flagged at a 10%% gate: %v", d.Regressions())
	}
}

func TestCompareDirections(t *testing.T) {
	old := env(t, "slo",
		Cell{Name: "total", Metrics: map[string]float64{"qps": 100, "violations": 0, "clean_errors": 5}})
	new_ := env(t, "slo",
		Cell{Name: "total", Metrics: map[string]float64{"qps": 80, "violations": 2, "clean_errors": 50}})
	d, err := Compare(old, new_, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]Delta{}
	for _, dl := range d.Deltas {
		byMetric[dl.Metric] = dl
	}
	if !byMetric["qps"].Regressed {
		t.Fatal("20% QPS drop not flagged")
	}
	if !byMetric["violations"].Regressed {
		t.Fatal("violations 0→2 not flagged (zero-old lower-better must gate)")
	}
	if byMetric["clean_errors"].Regressed {
		t.Fatal("informational metric gated the build")
	}

	// A ratio of counts gates, a ratio of clocks is informational: the
	// prefetch sweep's two reads of 1.60 and 2.99 on one cell are a noisy
	// host, its read counts are what a regression would move.
	old = env(t, "prefetch", Cell{Name: "lat=200µs/depth=4", Metrics: map[string]float64{"wall_speedup": 2.99, "prefetch_reads": 439}})
	new_ = env(t, "prefetch", Cell{Name: "lat=200µs/depth=4", Metrics: map[string]float64{"wall_speedup": 1.60, "prefetch_reads": 439}})
	if d, err = Compare(old, new_, 0.10); err != nil || len(d.Regressions()) != 0 {
		t.Fatalf("wall-clock ratio gated the build: %v (err %v)", d.Regressions(), err)
	}
	old = env(t, "planner", Cell{Name: "planner|gate", Metrics: map[string]float64{"speedup": 1.057}})
	new_ = env(t, "planner", Cell{Name: "planner|gate", Metrics: map[string]float64{"speedup": 0.93}})
	if d, err = Compare(old, new_, 0.10); err != nil || len(d.Regressions()) != 1 {
		t.Fatalf("counted speedup 1.057 → 0.93 not flagged: %v (err %v)", d.Regressions(), err)
	}
}

// TestCompareTxnSweepGates pins the contention sweep's gating contract:
// a 20% retrieve-throughput drop in a versioned cell regresses at the
// 10% gate, while the txn volume counters riding in the same cell move
// arbitrarily without gating the build.
func TestCompareTxnSweepGates(t *testing.T) {
	old := env(t, "txn", Cell{Name: "versioned/z0.9/u0.3/K=8", Metrics: map[string]float64{
		"retrieve_qps": 100, "update_qps": 40,
		"snapshots": 200, "latch_waits": 3, "versions_installed": 120, "drain_applied": 50,
	}})
	new_ := env(t, "txn", Cell{Name: "versioned/z0.9/u0.3/K=8", Metrics: map[string]float64{
		"retrieve_qps": 80, "update_qps": 38,
		"snapshots": 900, "latch_waits": 300, "versions_installed": 10, "drain_applied": 1,
	}})
	d, err := Compare(old, new_, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	regs := d.Regressions()
	if len(regs) != 1 || regs[0].Metric != "retrieve_qps" {
		t.Fatalf("regressions = %v, want exactly retrieve_qps (update_qps fell 5%%, counters are info)", regs)
	}
}

func TestCompareKindMismatchAndMissingCells(t *testing.T) {
	a := env(t, "chaos", Cell{Name: "DFS", Metrics: map[string]float64{"violations": 0}})
	b := env(t, "prefetch")
	if _, err := Compare(a, b, 0.1); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	c := env(t, "chaos", Cell{Name: "BFS", Metrics: map[string]float64{"violations": 0}})
	d, err := Compare(a, c, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MissingCells) != 2 {
		t.Fatalf("missing cells = %v, want both sides reported", d.MissingCells)
	}
	if len(d.Regressions()) != 0 {
		t.Fatal("cell-shape change must not gate")
	}
}

func TestDiffWriteText(t *testing.T) {
	old := env(t, "throughput", Cell{Name: "k8", Metrics: map[string]float64{"p99_ns": 100}})
	new_ := env(t, "throughput", Cell{Name: "k8", Metrics: map[string]float64{"p99_ns": 150}})
	d, err := Compare(old, new_, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.WriteText(&buf)
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("report missing regression line:\n%s", buf.String())
	}
}
