package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// transcriptScript drives the shell over the example database: a
// procedural \path, a retrieve, an OID-list \path twice (a cache miss,
// then a hit), the heat it left, a reorganization and the counters.
// With -slow-n 4 the four timed calls are all retained.
const transcriptScript = `\path 1
retrieve (person.name, person.age) where person.age >= 60
\path 3
\path 3
\heat
\reclust
\heat
\stats
\slow
\quit
`

// transcriptWant is the shell's answer to transcriptScript with the
// clock taken out: the \slow entries are sorted and carry no index or
// duration, and txn's epoch and commit count are masked, since they
// count the load's commits too, which depends on when versioning starts.
const transcriptWant = `corep query shell — the paper's example database is loaded.
relations: person(OID,name,age), cyclist(OID,name), group(key,name,members)
groups: 1=elders, 2=children, 3=cyclists
try: retrieve (person.name, person.age) where person.age >= 60
     \path 1    \stats    \slow    \help    \quit
  John
  Mary
  Paul
person.name | person.age
John | 62
Mary | 62
Paul | 68
(3 rows)
  Mary
  Mike
  Mary
  Mike
  group      key=3      heat=1.999
reorganized 1 unit(s): 2 subobject cop(ies) packed onto 1 extent page(s)
  group      key=3      heat=1.999  (migrated)
disk:     0 reads, 0 writes
buffer:   30 hits, 0 misses, 0 flushes, 50 pins
cache:    1 hits, 2 misses, 2 inserts, 0 evictions, 2 invalidations
txn:      epoch _, _ commits (0 versions), 0 aborts, 3 snapshot reads, 0 latch waits
reclust:  1 units tracked (2 touches, 0 evictions), 2 migrations in 1 batches, 1 pages rewritten, 2 placements (0 dropped)
faults:   0 injected over 0 ops; pool retried 0, recovered 0
slow log: 4/4 retained of 4 observed
[_] query.path _  io=0
        cache.insert: 0 reads, 0 writes, 2 hits, 0 misses
      query.path: 0 reads, 0 writes, 4 hits, 0 misses
[_] query.path _  io=0
        cache.insert: 0 reads, 0 writes, 2 hits, 0 misses
      query.path: 0 reads, 0 writes, 5 hits, 0 misses
[_] query.path _  io=0
        cache.lookup: 0 reads, 0 writes, 1 hits, 0 misses
      query.path: 0 reads, 0 writes, 2 hits, 0 misses
[_] query.pql _  io=0
      query.pql: 0 reads, 0 writes, 1 hits, 0 misses
`

var (
	slowHeader = regexp.MustCompile(`^\[\d+\] (\S+) +\S+  (io=.*)$`)
	txnCounts  = regexp.MustCompile(`^txn:      epoch \d+, \d+ commits`)
)

// TestTranscript runs the shell on a script and compares what it prints,
// clock-dependent parts masked, with the transcript above.
func TestTranscript(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-slow-n", "4"}, strings.NewReader(transcriptScript), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if errOut.Len() != 0 {
		t.Errorf("stderr: %s", errOut.String())
	}
	if got := maskClock(out.String()); got != transcriptWant {
		t.Errorf("transcript:\n%s\nwant:\n%s", got, transcriptWant)
	}
}

// maskClock rewrites a transcript as transcriptWant describes.
func maskClock(s string) string {
	var lines, slow []string
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		switch {
		case slowHeader.MatchString(line):
			slow = append(slow, slowHeader.ReplaceAllString(line, "[_] $1 _  $2"))
		case len(slow) > 0 && strings.HasPrefix(line, "      "):
			slow[len(slow)-1] += "\n" + line
		default:
			lines = append(lines, txnCounts.ReplaceAllString(line, "txn:      epoch _, _ commits"))
		}
	}
	slices.Sort(slow)
	return strings.Join(append(lines, slow...), "\n") + "\n"
}
