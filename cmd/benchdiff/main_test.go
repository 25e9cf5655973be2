package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corep/internal/bench"
)

// writeRun writes a minimal envelope with the given p99 to a temp file,
// stamped with a made-up revision so the fixture does not depend on the
// test running inside a checkout.
func writeRun(t *testing.T, dir, name string, p99 float64) string {
	t.Helper()
	return writeRunAt(t, dir, name, p99, strings.Repeat("ab", 20))
}

func writeRunAt(t *testing.T, dir, name string, p99 float64, rev string) string {
	t.Helper()
	env, err := bench.New("slo", map[string]string{"synthetic": name}, []bench.Cell{
		{Name: "total", Metrics: map[string]float64{"p99_ns": p99, "qps": 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.GitRev = rev
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := env.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsSyntheticRegression is the acceptance gate: a 20% p99
// regression must fail a 10% threshold and pass a 25% one.
func TestFlagsSyntheticRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeRun(t, dir, "old.json", 1_000_000)
	new_ := writeRun(t, dir, "new.json", 1_200_000) // +20% p99

	var out, errOut bytes.Buffer
	if code := run([]string{"-threshold", "0.10", old, new_}, &out, &errOut); code != 1 {
		t.Fatalf("20%% regression at 10%% gate: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "p99_ns") {
		t.Fatalf("report does not name the regression:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-threshold", "0.25", old, new_}, &out, &errOut); code != 0 {
		t.Fatalf("20%% regression at 25%% gate: exit %d, want 0\n%s", code, out.String())
	}
}

func TestCleanRunAndReportFile(t *testing.T) {
	dir := t.TempDir()
	old := writeRun(t, dir, "old.json", 1_000_000)
	same := writeRun(t, dir, "same.json", 1_000_000)
	report := filepath.Join(dir, "diff.txt")

	var out, errOut bytes.Buffer
	if code := run([]string{"-report", report, old, same}, &out, &errOut); code != 0 {
		t.Fatalf("identical runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "no regressions") {
		t.Fatalf("report file wrong:\n%s", raw)
	}
}

func TestUsageAndBadInputs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"nope.json", "nope2.json"}, &out, &errOut); code != 2 {
		t.Fatalf("missing files: exit %d, want 2", code)
	}

	// An unversioned legacy file must be rejected with exit 2.
	dir := t.TempDir()
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"clients":[1,2]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeRun(t, dir, "good.json", 1)
	errOut.Reset()
	if code := run([]string{legacy, good}, &out, &errOut); code != 2 {
		t.Fatalf("legacy file: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "schema_version") {
		t.Fatalf("legacy rejection not actionable: %s", errOut.String())
	}

	// A baseline nobody can tie to a commit is refused; the new side of
	// the comparison may be unstamped (a run outside a checkout).
	unstamped := writeRunAt(t, dir, "unstamped.json", 1, "")
	errOut.Reset()
	if code := run([]string{unstamped, good}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "unstamped baseline") {
		t.Fatalf("unstamped baseline: exit %d, want 2 and a reason: %s", code, errOut.String())
	}
	if code := run([]string{good, unstamped}, &out, &errOut); code != 0 {
		t.Fatalf("unstamped new run: exit %d, want 0: %s", code, errOut.String())
	}
}
