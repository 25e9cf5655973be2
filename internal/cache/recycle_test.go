package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/object"
)

// The cache's bookkeeping as it was before it recycled lock lists and
// I-lock sets, kept as the reference the recycling one must equal: a
// fresh copy of every new entry's lock list, a fresh slice for every
// OID locked for the first time, and nothing kept when either empties.
// The functions drive a *Cache's directory, key list and lock table
// directly; the hash file and deleteSeg are shared.

func refInsert(c *Cache, u object.Unit, locks []object.OID, value []byte) error {
	key := u.HashKey()
	e, exists := c.dir[key]
	if !exists && len(c.dir) >= c.maxUnits {
		victim := c.sorted[c.rng.Intn(len(c.sorted))]
		c.stats.Evictions++
		if err := refDrop(c, victim); err != nil {
			return err
		}
	}
	for i := 0; i < e.segs; i++ {
		if err := c.deleteSeg(segKey(key, i)); err != nil {
			refAbortInsert(c, key, 0)
			return err
		}
	}
	segs := numSegments(len(value))
	for i := 0; i < segs; i++ {
		lo := i * maxSegment
		hi := min(lo+maxSegment, len(value))
		if err := c.file.Put(segKey(key, i), value[lo:hi]); err != nil {
			refAbortInsert(c, key, i)
			if disk.IsFault(err) {
				c.stats.Degraded++
			}
			return err
		}
	}
	if !exists {
		e.locks = append(object.Unit(nil), locks...)
		at, _ := slices.BinarySearch(c.sorted, key)
		c.sorted = slices.Insert(c.sorted, at, key)
		for _, oid := range locks {
			if held := c.ilocks[oid]; len(held) == 0 || held[len(held)-1] != key {
				c.ilocks[oid] = append(held, key)
			}
		}
	}
	e.segs = segs
	c.dir[key] = e
	c.stats.Inserts++
	return nil
}

func refAbortInsert(c *Cache, key int64, written int) {
	if e, ok := c.dir[key]; ok {
		e.segs = written
		c.dir[key] = e
		refDrop(c, key) //nolint:errcheck // as abortInsert
		return
	}
	for i := 0; i < written; i++ {
		c.deleteSeg(segKey(key, i)) //nolint:errcheck // as abortInsert
	}
}

func refDrop(c *Cache, key int64) error {
	e, ok := c.dir[key]
	if !ok {
		return nil
	}
	var firstErr error
	for i := 0; i < e.segs; i++ {
		if err := c.deleteSeg(segKey(key, i)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(c.dir, key)
	if at, ok := slices.BinarySearch(c.sorted, key); ok {
		c.sorted = slices.Delete(c.sorted, at, at+1)
	}
	for _, oid := range e.locks {
		held := c.ilocks[oid]
		at := slices.Index(held, key)
		if at < 0 {
			continue
		}
		if len(held) == 1 {
			delete(c.ilocks, oid)
			continue
		}
		held[at] = held[len(held)-1]
		c.ilocks[oid] = held[:len(held)-1]
	}
	return firstErr
}

func refInvalidate(c *Cache, updated object.OID) (int, error) {
	keys := c.ilocks[updated]
	if len(keys) == 0 {
		return 0, nil
	}
	delete(c.ilocks, updated)
	var firstErr error
	for _, k := range keys {
		if err := refDrop(c, k); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.stats.Invalidations += int64(len(keys))
	if firstErr != nil {
		return 0, firstErr
	}
	return len(keys), nil
}

func refLookup(c *Cache, u object.Unit) ([]byte, bool, error) {
	key := u.HashKey()
	e, cached := c.dir[key]
	if !cached {
		c.stats.Misses++
		return nil, false, nil
	}
	var out []byte
	for i := 0; i < e.segs; i++ {
		var err error
		if out, err = c.file.AppendValue(out, segKey(key, i)); err != nil {
			if disk.IsFault(err) {
				if derr := refDrop(c, key); derr != nil {
					return nil, false, derr
				}
				c.stats.Degraded++
				c.stats.Misses++
				return nil, false, nil
			}
			return nil, false, err
		}
	}
	c.stats.Hits++
	return out, true, nil
}

// twinCache is one cache of a side-by-side run: its own disk and pool.
type twinCache struct {
	c    *Cache
	d    *disk.Sim
	pool *buffer.Pool
}

func newTwin(t *testing.T, units int) twinCache {
	t.Helper()
	d := disk.NewSim()
	pool := buffer.New(d, 4) // tiny: hash-file pages keep leaving, faults find transfers
	c, err := New(pool, units, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return twinCache{c, d, pool}
}

// errString renders an error for comparison; nil as "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestRecycledBookkeepingMatchesReference: the recycling cache and the
// reference bookkeeping run one seeded script side by side, each on a
// disk and pool of its own — inserts of new and cached units at
// capacity (evictions), lock sets naming an OID twice, procedural lock
// sets of result tuples plus relation locks shared by many entries,
// Invalidate of members and of relation locks, lookups, and inserts and
// lookups a fault plan cuts short. After every op both return the same
// results and errors, hold the same directory, key list and lock table
// — every holder in the same order — and show the same disk and pool
// counters, and CheckInvariants (which also refuses a spare array still
// in use) gives both the same verdict.
func TestRecycledBookkeepingMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			const units, numOIDs = 10, 24
			got, ref := newTwin(t, units), newTwin(t, units)
			rng := rand.New(rand.NewSource(seed))
			member := func() object.OID { return object.NewOID(2, int64(rng.Intn(numOIDs))) }
			relLock := func() object.OID { return object.NewOID(uint16(5+rng.Intn(2)), object.MaxKey) }
			var known []object.Unit
			var spared int
			for op := 0; op < 4000; op++ {
				var what string
				faults := rng.Intn(6) == 0
				if faults {
					n := rng.Intn(6)
					got.d.SetFault(failAfter(n))
					ref.d.SetFault(failAfter(n))
				}
				switch r := rng.Intn(10); {
				case r < 5:
					var key object.Unit
					if len(known) > 0 && rng.Intn(3) == 0 {
						key = known[rng.Intn(len(known))]
					} else {
						key = make(object.Unit, 1+rng.Intn(5))
						for i := range key {
							key[i] = member()
						}
						if len(key) > 1 && rng.Intn(4) == 0 {
							key[len(key)-1] = key[0] // one OID twice
						}
						known = append(known, key)
					}
					locks := []object.OID(key)
					if rng.Intn(4) == 0 { // a stored query's result tuples and relation locks
						locks = []object.OID{member(), member(), relLock()}
						if rng.Intn(2) == 0 {
							locks = append(locks, relLock())
						}
					}
					value := bytes.Repeat([]byte{byte(op)}, 1+rng.Intn(2*maxSegment))
					what = fmt.Sprintf("insert %v locks %v", key, locks)
					err := got.c.InsertWithLocks(key, locks, value)
					rerr := refInsert(ref.c, key, locks, value)
					if errString(err) != errString(rerr) {
						t.Fatalf("op %d %s: error %v, reference %v", op, what, err, rerr)
					}
				case r < 7:
					updated := member()
					if rng.Intn(4) == 0 {
						updated = relLock()
					}
					what = fmt.Sprintf("invalidate %v", updated)
					n, err := got.c.Invalidate(updated)
					rn, rerr := refInvalidate(ref.c, updated)
					if n != rn || errString(err) != errString(rerr) {
						t.Fatalf("op %d %s: %d, %v; reference %d, %v", op, what, n, err, rn, rerr)
					}
				case len(known) > 0:
					key := known[rng.Intn(len(known))]
					what = fmt.Sprintf("lookup %v", key)
					v, ok, err := got.c.Lookup(key)
					rv, rok, rerr := refLookup(ref.c, key)
					if ok != rok || !bytes.Equal(v, rv) || errString(err) != errString(rerr) {
						t.Fatalf("op %d %s: ok=%v %d bytes %v; reference ok=%v %d bytes %v", op, what, ok, len(v), err, rok, len(rv), rerr)
					}
				}
				got.d.SetFault(nil)
				ref.d.SetFault(nil)
				if !slices.Equal(got.c.sorted, ref.c.sorted) || !reflect.DeepEqual(got.c.dir, ref.c.dir) {
					t.Fatalf("op %d %s: directories differ", op, what)
				}
				if !reflect.DeepEqual(got.c.ilocks, ref.c.ilocks) {
					t.Fatalf("op %d %s: lock tables differ (holders or their order)", op, what)
				}
				if got.c.stats != ref.c.stats {
					t.Fatalf("op %d %s: cache stats %+v, reference %+v", op, what, got.c.stats, ref.c.stats)
				}
				if op%10 == 0 {
					gerr, rerr := got.c.CheckInvariants(), ref.c.CheckInvariants()
					if (gerr == nil) != (rerr == nil) || gerr != nil {
						t.Fatalf("op %d %s: CheckInvariants %v, reference %v", op, what, gerr, rerr)
					}
				}
				if got.d.Stats() != ref.d.Stats() || got.pool.Stats() != ref.pool.Stats() {
					t.Fatalf("op %d %s: disk %+v pool %+v; reference disk %+v pool %+v",
						op, what, got.d.Stats(), got.pool.Stats(), ref.d.Stats(), ref.pool.Stats())
				}
				spared = max(spared, len(got.c.spareLocks))
			}
			st := got.c.stats
			if st.Evictions == 0 || st.Invalidations == 0 || st.Degraded == 0 || st.Hits == 0 || spared == 0 {
				t.Fatalf("script did not reach every path: %+v, at most %d spare lock lists", st, spared)
			}
			// The spares never outnumber the most entries ever live.
			if n := len(got.c.spareLocks) + len(got.c.dir); n > units {
				t.Fatalf("%d lock lists live or spare, more than the %d units the cache holds", n, units)
			}
		})
	}
}

// TestCheckInvariantsRefusesSharedSpares: a spare array that a live
// lock list or I-lock set still uses, or that is kept twice, is
// reported — two later inserts would write through one array.
func TestCheckInvariantsRefusesSharedSpares(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(c *Cache)
	}{
		{"live lock list", func(c *Cache) {
			c.spareLocks = append(c.spareLocks, c.dir[unit(1, 2).HashKey()].locks[:0])
		}},
		{"live I-lock set", func(c *Cache) {
			c.spareSets = append(c.spareSets, c.ilocks[object.NewOID(2, 1)][:0])
		}},
		{"lock list kept twice", func(c *Cache) {
			c.spareLocks = append(c.spareLocks, c.spareLocks[0])
		}},
		{"I-lock set kept twice", func(c *Cache) {
			c.spareSets = append(c.spareSets, c.spareSets[0])
		}},
		{"spare not emptied", func(c *Cache) {
			c.spareSets[0] = c.spareSets[0][:1]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cc, _, _ := newFaultedCache(t)
			for _, u := range []object.Unit{unit(1, 2), unit(3), unit(4, 5)} {
				if err := cc.Insert(u, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cc.Invalidate(object.NewOID(2, 3)); err != nil { // a spare list and a spare set
				t.Fatal(err)
			}
			if err := cc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			c.corrupt(cc)
			if err := cc.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants accepted a spare array in use")
			}
		})
	}
}
