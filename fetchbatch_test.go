package corep_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"corep"
)

// TestFetchBatchMatchesFetchLoop is the FetchBatch property test: for a
// probe set with duplicates, shuffled order, and OIDs spanning several
// relations, FetchBatch must return exactly the rows a sequential Fetch
// loop returns, in the same order, for the same simulated I/O or less.
func TestFetchBatchMatchesFetchLoop(t *testing.T) {
	// A 10-page pool over ~27 pages of relations: eviction pressure makes
	// the I/O comparison meaningful.
	build := func() (*corep.Database, []corep.OID) {
		db := corep.NewDatabase(10)
		var oids []corep.OID
		for r := 0; r < 3; r++ {
			rel, err := db.CreateRelation(fmt.Sprintf("rel%d", r),
				corep.IntField("id"), corep.StrField("tag"), corep.IntField("score"))
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 400; k++ {
				oid, err := rel.Insert(corep.Row{
					corep.Int(k), corep.Str(fmt.Sprintf("r%d-%d", r, k)), corep.Int(k * 7 % 101),
				})
				if err != nil {
					t.Fatal(err)
				}
				oids = append(oids, oid)
			}
		}
		return db, oids
	}

	rng := rand.New(rand.NewSource(42))
	probes := make([]corep.OID, 0, 900)
	db, oids := build()
	for i := 0; i < 900; i++ {
		probes = append(probes, oids[rng.Intn(len(oids))]) // duplicates likely
	}

	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	var seq []corep.Row
	for _, oid := range probes {
		row, err := db.Fetch(oid)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, row)
	}
	s := db.Snapshot().Disk
	ioSeq := s.Reads + s.Writes

	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	batch, err := db.FetchBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	// ResetCold zeroed the counters, so this delta is the batch alone.
	s2 := db.Snapshot().Disk
	ioBatch := s2.Reads + s2.Writes

	if len(batch) != len(seq) {
		t.Fatalf("batch returned %d rows, loop %d", len(batch), len(seq))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], batch[i]) {
			t.Fatalf("row %d differs: loop %v, batch %v", i, seq[i], batch[i])
		}
	}
	if ioBatch > ioSeq {
		t.Fatalf("batch I/O %d > sequential I/O %d", ioBatch, ioSeq)
	}
	t.Logf("sequential I/O %d, batched I/O %d", ioSeq, ioBatch)
}

func TestFetchBatchUnknownOID(t *testing.T) {
	db := corep.NewDatabase(10)
	rel, err := db.CreateRelation("r", corep.IntField("id"))
	if err != nil {
		t.Fatal(err)
	}
	oid, err := rel.Insert(corep.Row{corep.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.FetchBatch([]corep.OID{oid, oid + 1}); err == nil {
		t.Fatal("missing key not reported")
	}
	if _, err := db.FetchBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
