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
	db, _, _ := openGroups(t, corep.Options{BufferPages: 64, CacheUnits: 32, SlowLogCapacity: 4})
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("group", "members", "name", 1, 2); err != nil {
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
	db, _, _ := openGroups(t, corep.Options{BufferPages: 64, CacheUnits: 32, SlowLogCapacity: 8})
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
			t.Fatal(err)
		}
	}
	// The path entry points are one retrieval and report alike.
	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("group", "members", "name", 1, 2); err != nil {
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

	// A database opened without a slow log captures nothing.
	plain, _, _ := cachedDB(t)
	if _, err := plain.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
		t.Fatal(err)
	}
	if got := plain.SlowQueries(); len(got) != 0 {
		t.Fatalf("database without a slow log returns %d entries", len(got))
	}
}

// TestSlowLogThresholdMarksViolations: entries at or over the threshold
// carry OverSLO and count as violations in the snapshot.
func TestSlowLogThresholdMarksViolations(t *testing.T) {
	db, _, _ := openGroups(t, corep.Options{BufferPages: 64, CacheUnits: 32, SlowLogCapacity: 4, SlowLogThreshold: time.Nanosecond})
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

// TestSlowLogTeesWithTracing: with a trace stream alongside the slow
// log, the external trace stream still receives every span, one
// SpanEvent per line with io == reads + writes, and span ids stay unique
// across queries — both read the database's one tracer, so a captured
// entry's ids are the stream's ids.
func TestSlowLogTeesWithTracing(t *testing.T) {
	var trace bytes.Buffer
	db, _, _ := openGroups(t, corep.Options{BufferPages: 64, CacheUnits: 32, Trace: &trace, SlowLogCapacity: 4})
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
			t.Fatal(err)
		}
	}
	type span struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		Reads  int64  `json:"reads"`
		Writes int64  `json:"writes"`
		IO     int64  `json:"io"`
	}
	byID := map[uint64]span{}
	roots := 0
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var sp span
		if err := json.Unmarshal([]byte(line), &sp); err != nil || sp.ID == 0 || sp.Name == "" {
			t.Fatalf("trace line is not a span event (%v): %s", err, line)
		}
		if sp.IO != sp.Reads+sp.Writes {
			t.Errorf("span %d: io %d != reads %d + writes %d", sp.ID, sp.IO, sp.Reads, sp.Writes)
		}
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("span id %d emitted twice:\n%s", sp.ID, trace.String())
		}
		byID[sp.ID] = sp
		if sp.Name == "query.pql" {
			roots++
		}
	}
	if roots != 3 {
		t.Fatalf("trace stream carries %d query.pql spans, want 3:\n%s", roots, trace.String())
	}
	slow := db.SlowQueries()
	if len(slow) != 3 {
		t.Fatalf("slow log retained %d entries, want 3", len(slow))
	}
	for _, q := range slow {
		for _, sp := range q.Spans {
			if got, ok := byID[sp.ID]; !ok || got.Name != sp.Name || got.Parent != sp.Parent {
				t.Errorf("captured span %d (%s) is not the stream's span %+v", sp.ID, sp.Name, got)
			}
		}
	}
}

// TestSlowLogDoesNotChangeIO: capture must observe, not perturb — the
// same query sequence costs identical disk I/O with and without the
// slow log armed.
func TestSlowLogDoesNotChangeIO(t *testing.T) {
	run := func(arm bool) int64 {
		opts := corep.Options{BufferPages: 64, CacheUnits: 32}
		if arm {
			opts.SlowLogCapacity = 8
		}
		db, _, _ := openGroups(t, opts)
		if err := db.ResetCold(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(`retrieve (person.name) where person.age >= 60`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RetrievePath("group", "members", "name", 1, 2); err != nil {
			t.Fatal(err)
		}
		s := db.Snapshot().Disk
		return s.Reads + s.Writes
	}
	plain, armed := run(false), run(true)
	if plain != armed {
		t.Fatalf("slow log changed I/O: %d without, %d with", plain, armed)
	}
}
