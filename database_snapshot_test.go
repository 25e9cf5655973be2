package corep_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"corep"
)

func TestSnapshotConsolidatesLayers(t *testing.T) {
	db, _, _ := cachedDB(t)
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	db.EnableSlowLog(4, 0)
	if _, err := db.RetrievePathCached("group", "members", "name", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if snap.Disk.Reads == 0 {
		t.Fatal("snapshot saw no disk reads")
	}
	if snap.Buffer.Hits+snap.Buffer.Misses == 0 {
		t.Fatal("snapshot saw no buffer traffic")
	}
	if snap.Cache == nil || snap.Cache.Inserts == 0 {
		t.Fatalf("snapshot missed the enabled cache: %+v", snap.Cache)
	}
	if !snap.SlowLog.Enabled || snap.SlowLog.Observed == 0 || snap.SlowLog.Retained == 0 {
		t.Fatalf("snapshot missed the slow log: %+v", snap.SlowLog)
	}
	// The snapshot must serialize cleanly (the \stats JSON path).
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"slow_log"`) {
		t.Fatalf("snapshot JSON missing sections: %s", raw)
	}

	// A cache-less, slow-log-less database snapshots too.
	plain := corep.NewDatabase(16)
	ps := plain.Snapshot()
	if ps.Cache != nil || ps.SlowLog.Enabled {
		t.Fatalf("plain snapshot carries residue: %+v", ps)
	}
}

func TestSlowLogCapturesQuerySpans(t *testing.T) {
	db, _, _ := cachedDB(t)
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	db.EnableSlowLog(8, 0)
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
			t.Fatal(err)
		}
	}
	// The three path entry points are one retrieval and report alike.
	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePathCached("group", "members", "name", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePathN("group", []string{"members", "name"}, 1, 2); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries()
	if len(slow) != 6 {
		t.Fatalf("retained %d entries, want all 6", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration > slow[i-1].Duration {
			t.Fatal("slow queries not sorted slowest-first")
		}
	}
	byName := map[string]int{}
	var sawSpans, sawIO bool
	for _, q := range slow {
		byName[q.Name]++
		if len(q.Spans) > 0 {
			sawSpans = true
		}
		if q.TotalIO() > 0 {
			sawIO = true
		}
		if q.Err != "" {
			t.Fatalf("clean query recorded error %q", q.Err)
		}
	}
	if byName["query.pql"] != 3 || byName["query.path"] != 3 {
		t.Fatalf("entry names wrong: %v", byName)
	}
	if !sawSpans {
		t.Fatal("no entry captured a span tree")
	}
	if !sawIO {
		t.Fatal("no entry attributed I/O (cold reads must show up)")
	}

	// A failing query is captured with its error.
	if _, err := db.Query(`retrieve (nosuch.name)`); err == nil {
		t.Fatal("bad query succeeded")
	}
	found := false
	for _, q := range db.SlowQueries() {
		if q.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("failed query not captured in slow log")
	}

	// Disabling clears capture.
	db.EnableSlowLog(0, 0)
	if got := db.SlowQueries(); len(got) != 0 {
		t.Fatalf("disabled slow log still returns %d entries", len(got))
	}
}

// TestSlowLogThresholdMarksViolations: entries at or over the threshold
// carry OverSLO and count as violations in the snapshot.
func TestSlowLogThresholdMarksViolations(t *testing.T) {
	db, _, _ := cachedDB(t)
	db.EnableSlowLog(4, time.Nanosecond)
	if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries()
	if len(slow) == 0 || !slow[0].OverSLO {
		t.Fatalf("1ns threshold not marked: %+v", slow)
	}
	if db.Snapshot().SlowLog.Violations == 0 {
		t.Fatal("snapshot shows no violations")
	}
}

// TestSlowLogTeesWithTracing: with TraceTo active alongside the slow
// log, the external trace stream still receives every span.
func TestSlowLogTeesWithTracing(t *testing.T) {
	db, _, _ := cachedDB(t)
	var trace bytes.Buffer
	db.TraceTo(&trace)
	db.EnableSlowLog(4, 0)
	if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "query.pql") {
		t.Fatalf("trace stream lost spans under slow-log capture:\n%s", trace.String())
	}
	if len(db.SlowQueries()) == 0 {
		t.Fatal("slow log captured nothing while tracing")
	}
}

// TestMetricsReportWithoutEnable is the nil-registry regression test:
// MetricsReport before EnableMetrics must write nothing and not panic.
func TestMetricsReportWithoutEnable(t *testing.T) {
	db := corep.NewDatabase(16)
	var buf bytes.Buffer
	db.MetricsReport(&buf)
	if buf.Len() != 0 {
		t.Fatalf("disabled metrics wrote %q", buf.String())
	}
}

// TestSlowLogDoesNotChangeIO: capture must observe, not perturb — the
// same query sequence costs identical disk I/O with and without the
// slow log armed.
func TestSlowLogDoesNotChangeIO(t *testing.T) {
	run := func(arm bool) int64 {
		db, _, _ := cachedDB(t)
		if err := db.ResetCold(); err != nil {
			t.Fatal(err)
		}
		if arm {
			db.EnableSlowLog(8, 0)
		}
		if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RetrievePath("group", "members", "name", 1, 2); err != nil {
			t.Fatal(err)
		}
		return db.Stats().Reads + db.Stats().Writes
	}
	plain, armed := run(false), run(true)
	if plain != armed {
		t.Fatalf("slow log changed I/O: %d without, %d with", plain, armed)
	}
}
