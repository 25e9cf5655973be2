package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/object"
)

// failAfter lets n disk transfers through and fails every later one, so
// a multi-segment insert or lookup faults part-way.
func failAfter(n int) disk.FaultFunc {
	return func(op string, _ disk.PageID) error {
		if op == "alloc" {
			return nil
		}
		if n--; n < 0 {
			return disk.ErrPermanent
		}
		return nil
	}
}

// TestDirectoryInvariantsRandomized drives the one-entry directory and
// the slice lock sets through every shape an insert can take — members
// shared between units, an OID named twice in one lock set, a cached
// unit inserted again, a lock set that is not the key unit, and a Put
// that faults between two segments — against a model of what may still
// hit, checking the directory ↔ lock table ↔ hash file cross references
// as it goes.
func TestDirectoryInvariantsRandomized(t *testing.T) {
	d := disk.NewSim()
	// Four frames: the hash file's pages keep leaving the pool, so a
	// fault plan finds transfers to fail.
	c, err := New(buffer.New(d, 4), 12, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	oid := func() object.OID { return object.NewOID(2, int64(rng.Intn(30))) }
	type cached struct {
		locks []object.OID
		value []byte
	}
	model := map[int64]cached{} // what a hit may return; evictions only remove
	var known []object.Unit     // every key unit seen, for re-inserts and lookups
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert: new or known key, plain or with its own lock set
			var key object.Unit
			if len(known) > 0 && rng.Intn(3) == 0 {
				key = known[rng.Intn(len(known))]
			} else {
				key = make(object.Unit, 2+rng.Intn(4))
				for i := range key {
					key[i] = oid()
				}
				if rng.Intn(3) == 0 {
					key[len(key)-1] = key[0] // one OID twice
				}
				known = append(known, key)
			}
			locks := []object.OID(key)
			if rng.Intn(3) == 0 {
				locks = []object.OID{oid(), oid(), oid()}
			}
			value := bytes.Repeat([]byte{byte(op)}, 1+rng.Intn(2*maxSegment))
			faulted := rng.Intn(4) == 0
			if faulted {
				d.SetFault(failAfter(rng.Intn(5)))
			}
			err := c.InsertWithLocks(key, locks, value)
			d.SetFault(nil)
			switch prev, was := model[key.HashKey()]; {
			case err == nil && was:
				// A re-insert refreshes the value and keeps the lock set.
				model[key.HashKey()] = cached{prev.locks, value}
			case err == nil:
				model[key.HashKey()] = cached{locks, value}
			case !disk.IsFault(err):
				t.Fatalf("op %d: insert: %v", op, err)
			default:
				delete(model, key.HashKey())
				if c.IsCached(key) {
					t.Fatalf("op %d: faulted insert left the unit in the directory", op)
				}
			}
		case r < 7:
			updated := oid()
			if _, err := c.Invalidate(updated); err != nil {
				t.Fatalf("op %d: invalidate: %v", op, err)
			}
			for k, e := range model {
				if slices.Contains(e.locks, updated) {
					delete(model, k)
				}
			}
		case len(known) > 0:
			key := known[rng.Intn(len(known))]
			got, ok, err := c.Lookup(key)
			if err != nil {
				t.Fatalf("op %d: lookup: %v", op, err)
			}
			if want, may := model[key.HashKey()]; ok && (!may || !bytes.Equal(got, want.value)) {
				t.Fatalf("op %d: hit on %v serves %d bytes the model does not hold (cached=%v)", op, key, len(got), may)
			}
		}
		if op%100 == 99 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Invalidations == 0 || st.Degraded == 0 || st.Hits == 0 {
		t.Fatalf("script did not reach every path: %+v", st)
	}
}

// TestAppendLookupKeepsPrefix: the append-into lookup extends the
// caller's buffer on a hit and hands it back as it came — length and
// bytes — on a miss and on a hit a faulted segment degraded after the
// first segment had already been appended.
func TestAppendLookupKeepsPrefix(t *testing.T) {
	c, pool, d := newFaultedCache(t)
	prefix := []byte("prefix")
	buf := func() []byte { return append(make([]byte, 0, 4*maxSegment), prefix...) }
	u := unit(1, 2, 3)
	value := bytes.Repeat([]byte("0123456789"), maxSegment/5) // two segments

	got, ok, err := c.AppendLookup(buf(), u, 0)
	if err != nil || ok || !bytes.Equal(got, prefix) {
		t.Fatalf("miss: got %q ok=%v err=%v, want the prefix alone", got, ok, err)
	}
	if err := c.Insert(u, value); err != nil {
		t.Fatal(err)
	}
	got, ok, err = c.AppendLookup(buf(), u, 0)
	if err != nil || !ok || !bytes.Equal(got, append(buf(), value...)) {
		t.Fatalf("hit: ok=%v err=%v, %d bytes, want prefix+value (%d)", ok, err, len(got), len(prefix)+len(value))
	}
	if plain, _, _ := c.Lookup(u); !bytes.Equal(plain, value) {
		t.Fatalf("Lookup returns %d bytes, want the value alone (%d)", len(plain), len(value))
	}

	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	d.SetFault(failAfter(1)) // segment 0 is read, segment 1 faults
	dst := buf()
	got, ok, err = c.AppendLookup(dst, u, 0)
	d.SetFault(nil)
	if err != nil || ok || !bytes.Equal(got, prefix) || &got[0] != &dst[0] {
		t.Fatalf("degraded hit: got %d bytes ok=%v err=%v, want the caller's prefix back", len(got), ok, err)
	}
	if st := c.Stats(); st.Degraded != 1 || c.IsCached(u) {
		t.Fatalf("degraded hit kept the entry: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateOrderDeterministic: one seeded insert / evict /
// invalidate script touches the disk's pages in one order, run after
// run. Every subobject sits in five units (the paper's UseFactor 5), so
// an update drops several cached units — in the order their I-locks were
// taken, not in a map's.
func TestInvalidateOrderDeterministic(t *testing.T) {
	const numOIDs, sizeUnit, useFactor = 120, 5, 5
	setup := rand.New(rand.NewSource(3))
	var units []object.Unit
	for round := 0; round < useFactor; round++ {
		perm := setup.Perm(numOIDs)
		for i := 0; i < numOIDs; i += sizeUnit {
			u := make(object.Unit, sizeUnit)
			for j := range u {
				u[j] = object.NewOID(2, int64(perm[i+j]))
			}
			units = append(units, u)
		}
	}
	run := func() (trace []string, st Stats) {
		d := disk.NewSim()
		c, err := New(buffer.New(d, 4), len(units)/2, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		d.SetFault(func(op string, id disk.PageID) error {
			if op != "alloc" {
				trace = append(trace, fmt.Sprintf("%s %d", op, id))
			}
			return nil
		})
		rng := rand.New(rand.NewSource(8))
		for op := 0; op < 2000; op++ {
			if rng.Intn(10) == 0 {
				if _, err := c.Invalidate(object.NewOID(2, int64(rng.Intn(numOIDs)))); err != nil {
					t.Fatal(err)
				}
				continue
			}
			u := units[rng.Intn(len(units))]
			if _, ok, err := c.Lookup(u); err != nil {
				t.Fatal(err)
			} else if !ok {
				if err := c.Insert(u, bytes.Repeat([]byte{byte(op)}, 150)); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.SetFault(nil) // the check probes the file in map order
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return trace, c.Stats()
	}
	first, st := run()
	if st.Evictions == 0 || st.Invalidations < 200 {
		t.Fatalf("script too tame to order anything: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if again, _ := run(); !slices.Equal(first, again) {
			t.Fatalf("run %d touched the disk in a different order than run 0 (%d vs %d transfers)", i+1, len(again), len(first))
		}
	}
}
