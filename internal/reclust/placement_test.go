package reclust

import (
	"math/rand"
	"reflect"
	"testing"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/storage"
)

func TestPlacementEpochVisibility(t *testing.T) {
	m := NewMap()
	m.Publish(map[object.OID]Entry{
		1: {RID: storage.RID{Page: 10, Slot: 0}, Owner: 7, Epoch: 5},
		2: {RID: storage.RID{Page: 10, Slot: 1}, Owner: 7, Epoch: 0},
	})

	// Unversioned reader (snap 0) sees everything.
	if _, ok := m.Lookup(1, 0); !ok {
		t.Fatal("snap 0 must see epoch-5 entry")
	}
	// A snapshot pinned before the publish epoch keeps the old path.
	if _, ok := m.Lookup(1, 4); ok {
		t.Fatal("snap 4 must not see epoch-5 entry")
	}
	if _, ok := m.Lookup(1, 5); !ok {
		t.Fatal("snap 5 must see epoch-5 entry")
	}
	// Epoch-0 entries are visible to every snapshot.
	if _, ok := m.Lookup(2, 1); !ok {
		t.Fatal("epoch-0 entry must be visible at snap 1")
	}
	if _, ok := m.Lookup(3, 0); ok {
		t.Fatal("unplaced oid resolved")
	}

	if n := m.Drop([]object.OID{1, 99}); n != 1 {
		t.Fatalf("Drop removed %d, want 1", n)
	}
	if _, ok := m.Latest(1); ok {
		t.Fatal("dropped placement still resolves")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestPlacementCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := map[object.OID]Entry{}
	for i := 0; i < 200; i++ {
		in[object.OID(rng.Int63n(1<<40))] = Entry{
			RID:   storage.RID{Page: disk.PageID(rng.Uint32() >> 1), Slot: uint16(rng.Intn(1 << 16))},
			Owner: rng.Int63n(1 << 30),
			Epoch: uint64(rng.Int63()), // dropped by the codec
		}
	}
	blob := EncodePlacements(in)
	out, err := DecodePlacements(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := map[object.OID]Entry{}
	for k, v := range in {
		v.Epoch = 0 // post-recovery entries are visible to everyone
		want[k] = v
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(want), len(out))
	}

	// Determinism: encoding the same map twice is byte-identical.
	if string(blob) != string(EncodePlacements(in)) {
		t.Fatal("encoding not deterministic")
	}

	// Empty / nil blobs decode to an empty map (no batch committed).
	if got, err := DecodePlacements(nil); err != nil || len(got) != 0 {
		t.Fatalf("nil blob: %v, %d entries", err, len(got))
	}

	// Corruption is detected, not silently accepted.
	if _, err := DecodePlacements(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := DecodePlacements(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPlacementPublishOverwrites(t *testing.T) {
	m := NewMap()
	m.Publish(map[object.OID]Entry{1: {RID: storage.RID{Page: 1}, Owner: 3, Epoch: 1}})
	m.Publish(map[object.OID]Entry{1: {RID: storage.RID{Page: 2}, Owner: 4, Epoch: 2}})
	e, ok := m.Latest(1)
	if !ok || e.RID.Page != 2 || e.Owner != 4 {
		t.Fatalf("overwrite failed: %+v", e)
	}
	// The pre-overwrite snapshot epoch now misses entirely — the reader
	// falls back to the base location, which still holds the row.
	if _, ok := m.Lookup(1, 1); ok {
		t.Fatal("snap 1 must not see epoch-2 overwrite")
	}

	m.Replace(map[object.OID]Entry{9: {Owner: 1}})
	if m.Len() != 1 {
		t.Fatalf("Replace left %d entries", m.Len())
	}
	if _, ok := m.Latest(1); ok {
		t.Fatal("Replace kept stale entry")
	}
}
