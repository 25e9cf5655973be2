package engine

import (
	"errors"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"corep/internal/btree"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/heap"
	"corep/internal/object"
	"corep/internal/reclust"
	"corep/internal/storage"
)

// Adaptive clustering (DESIGN.md §13), the one mechanism under both
// front ends: a heat tracker says which units the workload wants, Migrate
// copies the hottest onto shared extent pages and redirects readers
// through the placement map, and a redirect is as durable as the commit
// that logged it. Migration is copy forwarding — base rows are never
// moved or deleted — so a failed batch or a crash can only lose a
// redirect, never a row. A front end adds an Enumerator (which rows make
// up a unit, where their bytes come from) and its update rule:
// WriteThrough where an update keeps the row's width, Retire where not.

// DefaultHeatCap bounds the heat table when InitReclust gets no capacity.
const DefaultHeatCap = 1024

// ErrReclustOff is Migrate's answer on a core without InitReclust.
var ErrReclustOff = errors.New("reclustering not enabled (call EnableReclustering)")

// Reclust is a core's adaptive-clustering state.
type Reclust struct {
	// Heat is the bounded, decayed per-unit access tracker (Touch).
	Heat *reclust.Tracker
	// Place redirects migrated objects to their packed copies. Only this
	// package mutates it.
	Place *reclust.Map

	// mu serializes batches, retires, write-throughs and restores. Lock
	// order: mu → the extent's pageMu → pool shard.
	mu sync.Mutex
	// restored marks state RestorePlacements had to create: the first
	// InitReclust sizes its tracker instead of failing.
	restored bool
	// blob is Place encoded, nil once Place has changed since.
	blob    []byte
	encodes atomic.Int64

	migrated, batches, pagesDirty, dropped atomic.Int64
}

// InitReclust installs the state: a heat tracker of heatCap units (<=0:
// DefaultHeatCap) with the given half-life in touches (<=0: the reclust
// package's default) and an empty placement map. Until then every method
// below is a no-op and every read stays on the base rows.
func (c *Core) InitReclust(heatCap, halfLife int) error {
	if heatCap <= 0 {
		heatCap = DefaultHeatCap
	}
	heat := reclust.NewTracker(heatCap, halfLife)
	switch r := c.Reclust; {
	case r == nil:
		c.Reclust = &Reclust{Heat: heat, Place: reclust.NewMap()}
	case r.restored:
		r.Heat, r.restored = heat, false
	default:
		return errors.New("reclustering already enabled")
	}
	return nil
}

// Touch counts one access to the unit rooted at key.
func (c *Core) Touch(key int64) { c.TouchRange(key, key) }

// TouchRange counts one access to every unit of [lo, hi].
func (c *Core) TouchRange(lo, hi int64) {
	if r := c.Reclust; r != nil {
		r.Heat.TouchRange(lo, hi, 1)
	}
}

// ReclustStats returns the counters, nil until InitReclust.
func (c *Core) ReclustStats() *reclust.Stats {
	r := c.Reclust
	if r == nil {
		return nil
	}
	touches, evictions := r.Heat.Counters()
	return &reclust.Stats{
		Tracked:    r.Heat.Len(),
		Touches:    touches,
		Evictions:  evictions,
		Placements: r.Place.Len(),
		Migrated:   r.migrated.Load(),
		Batches:    r.batches.Load(),
		PagesDirty: r.pagesDirty.Load(),
		Dropped:    r.dropped.Load(),
	}
}

// Encodes counts placement-map encodings: a commit that changed no
// placement must not add one.
func (r *Reclust) Encodes() int64 { return r.encodes.Load() }

// HotUnit is one heat-table entry and whether any placement names it as
// owner.
type HotUnit struct {
	reclust.KeyHeat
	Migrated bool
}

// HotUnits lists the n hottest units, hottest first (n < 0: all).
func (c *Core) HotUnits(n int) []HotUnit {
	r := c.Reclust
	if r == nil {
		return nil
	}
	owners := map[int64]bool{}
	for _, e := range r.Place.Snapshot() {
		owners[e.Owner] = true
	}
	var out []HotUnit
	for _, kh := range r.Heat.TopN(n) {
		out = append(out, HotUnit{KeyHeat: kh, Migrated: owners[kh.Key]})
	}
	return out
}

// --- the read view ---

// Placements returns the number of live placements.
func (c *Core) Placements() int {
	if c.Reclust == nil {
		return 0
	}
	return c.Reclust.Place.Len()
}

// Placed resolves oid's packed copy as a snapshot at epoch snap sees it
// (0: the newest).
func (c *Core) Placed(oid object.OID, snap uint64) (storage.RID, bool) {
	if c.Reclust == nil {
		return storage.RID{}, false
	}
	e, ok := c.Reclust.Place.Lookup(oid, snap)
	return e.RID, ok
}

// ViewOID and ProbeOIDs make the core a pql.ReadView: a migrated object
// is read from its packed copy (ViewPlaced), the rest through the
// catalog. Either way fn's record is a view valid while fn runs, and fn
// must not read through the core again.
func (c *Core) ViewOID(oid object.OID, fn func(rel *catalog.Relation, rec []byte) error) error {
	rid, ok := c.Placed(oid, 0)
	if !ok {
		return c.Cat.ViewOID(oid, fn)
	}
	rel, err := c.Cat.ByID(oid.Rel())
	if err != nil {
		return err
	}
	return c.ViewPlaced(rid, func(rec []byte) error { return fn(rel, rec) })
}

// ProbeOIDs reads placed members from their copies — one unit's members
// share extent pages, so the pool turns the probes into one or two page
// fetches — and the rest from the B-trees in one page-ordered sweep per
// relation, all in p's buffers.
func (c *Core) ProbeOIDs(p *catalog.Probe, oids []object.OID, fn func(i int, rel *catalog.Relation, rec []byte) error) error {
	if c.Placements() == 0 {
		return c.Cat.ProbeOIDs(p, oids, fn)
	}
	rest, at := p.Rest[:0], p.RestAt[:0]
	for i, oid := range oids {
		rid, ok := c.Placed(oid, 0)
		if !ok {
			rest, at = append(rest, oid), append(at, i)
			continue
		}
		rel, err := c.Cat.ByID(oid.Rel())
		if err == nil {
			err = c.ViewPlaced(rid, func(rec []byte) error { return fn(i, rel, rec) })
		}
		if err != nil {
			return err
		}
	}
	p.Rest, p.RestAt = rest, at
	return c.Cat.ProbeOIDs(p, rest, func(i int, rel *catalog.Relation, rec []byte) error {
		return fn(at[i], rel, rec)
	})
}

// --- migration ---

// Unit is one unit's share of a batch: the rows to copy, in packing
// order, and the heat key that owns them.
type Unit struct {
	Owner int64
	OIDs  []object.OID
}

// Enumerator is the front end's half of a migration. Its functions run
// under the migration mutex: they read the front end's rows and must not
// call back into Migrate, Retire, WriteThrough or PlacementBlob.
type Enumerator struct {
	// Unit lists the rows of the unit rooted at a hot key, in packing
	// order; nil when the key names no unit (any more).
	Unit func(key int64) ([]object.OID, error)
	// Row returns oid's bytes as owner's unit should store them. A
	// btree.ErrNotFound skips the row (a dangling member: the base read
	// path skips it too); any other error aborts the batch.
	Row func(owner int64, oid object.OID) ([]byte, error)
	// Meta wraps the encoded placements into the commit's recovery
	// metadata; nil logs them as they are.
	Meta func(placements []byte) ([]byte, error)
	// Ascending packs the batch in owner order instead of hottest first.
	Ascending bool
}

// Migrated describes one published batch.
type Migrated struct {
	Units   []Unit
	Objects int // rows copied
	Pages   int // distinct extent pages written
}

// Migrate runs one batch, the §12 commit protocol around a copy. Plan:
// walk the units hottest first and keep up to maxUnits that still have a
// row the map does not place (a row goes to the hottest unit listing it;
// "migrated" is the map's answer, there is no second set). Copy the rows
// onto the extent, Commit the page images with the placements including
// this batch as metadata, and only then Publish the redirects — under
// versioning inside the commit critical section, stamped with the fresh
// epoch, the moved objects' cache watermarks advancing with them. A
// failure before the publish leaves nothing published and nothing
// migrated (the copied rows are unreferenced orphans), so the next call
// plans the same units again.
func (c *Core) Migrate(maxUnits int, en Enumerator) (Migrated, error) {
	r := c.Reclust
	if r == nil {
		return Migrated{}, ErrReclustOff
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	var batch []Unit
	claimed := map[object.OID]bool{}
	for _, kh := range r.Heat.TopN(-1) {
		if len(batch) >= maxUnits {
			break
		}
		oids, err := en.Unit(kh.Key)
		if err != nil {
			return Migrated{}, err
		}
		var move []object.OID
		for _, oid := range oids {
			if _, placed := r.Place.Latest(oid); !placed && !claimed[oid] {
				claimed[oid] = true
				move = append(move, oid)
			}
		}
		if len(move) > 0 {
			batch = append(batch, Unit{Owner: kh.Key, OIDs: move})
		}
	}
	if len(batch) == 0 {
		return Migrated{}, nil
	}
	if en.Ascending {
		sort.Slice(batch, func(i, j int) bool { return batch[i].Owner < batch[j].Owner })
	}

	entries := make(map[object.OID]reclust.Entry)
	pages := map[disk.PageID]bool{}
	var moved []object.OID
	fail := func(err error) (Migrated, error) {
		r.dropped.Add(int64(len(moved))) // orphans
		return Migrated{}, err
	}
	for _, u := range batch {
		for _, oid := range u.OIDs {
			rec, err := en.Row(u.Owner, oid)
			if errors.Is(err, btree.ErrNotFound) {
				continue
			}
			var rid storage.RID
			if err == nil {
				rid, err = c.appendPlaced(rec)
			}
			if err != nil {
				return fail(err)
			}
			entries[oid] = reclust.Entry{RID: rid, Owner: u.Owner}
			moved = append(moved, oid)
			pages[rid.Page] = true
		}
		// Under the no-steal gate dirty extent frames hold their slots
		// until captured: commit the orphans so far rather than let a
		// large batch wedge a small pool.
		if c.pressed() {
			if _, err := c.Commit(nil); err != nil {
				return fail(err)
			}
		}
	}

	var blob []byte
	if c.Log() != nil {
		combined := r.Place.Snapshot()
		maps.Copy(combined, entries)
		blob = r.encode(combined)
		meta, err := blob, error(nil)
		if en.Meta != nil {
			meta, err = en.Meta(blob)
		}
		if err == nil {
			_, err = c.Commit(meta)
		}
		if err != nil {
			return fail(err)
		}
	}

	err := c.Publish(c.BeginUpdate(moved), moved, func(e uint64) {
		for oid, ent := range entries {
			ent.Epoch = e
			entries[oid] = ent
		}
		r.Place.Publish(entries)
	})
	r.blob = blob
	res := Migrated{Units: batch, Objects: len(moved), Pages: len(pages)}
	if err != nil {
		return res, err // published; the cache sweep failed
	}
	r.migrated.Add(int64(res.Objects))
	r.batches.Add(1)
	r.pagesDirty.Add(int64(res.Pages))
	return res, nil
}

// Retire drops the placements of oids: the update rule of a front end
// whose updates may change a row's width. Call before rewriting the base
// row and commit the placements (PlacementBlob) with it, so no reader and
// no recovery can find the stale copy.
func (c *Core) Retire(oids ...object.OID) {
	r := c.Reclust
	if r == nil {
		return
	}
	r.mu.Lock()
	if n := r.Place.Drop(oids); n > 0 {
		r.dropped.Add(int64(n))
		r.blob = nil
	}
	r.mu.Unlock()
}

// WriteThrough patches oid's packed copy in place, if it has one: the
// update rule of a front end whose updates keep the row's width. Batches
// are excluded meanwhile, so copy-then-update and update-then-copy both
// leave the copy carrying the new value. patch changes the record it is
// handed in place, keeping its length.
func (c *Core) WriteThrough(oid object.OID, patch func(rec []byte) error) error {
	r := c.Reclust
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.Place.Latest(oid)
	if !ok {
		return nil
	}
	rec, err := c.ReadPlaced(e.RID)
	if err == nil {
		err = patch(rec)
	}
	if err != nil {
		return err
	}
	return c.RewritePlaced(e.RID, rec)
}

// encode serializes a placement snapshot (counted: Encodes).
func (r *Reclust) encode(entries map[object.OID]reclust.Entry) []byte {
	r.encodes.Add(1)
	return reclust.EncodePlacements(entries)
}

// PlacementBlob returns the live placements encoded for a front end that
// carries them inside metadata of its own, nil when there are none. The
// encoding is kept until a placement changes.
func (c *Core) PlacementBlob() []byte {
	r := c.Reclust
	if r == nil || r.Place.Len() == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.blob == nil {
		r.blob = r.encode(r.Place.Snapshot())
	}
	return r.blob
}

// RestorePlacements reinstates the placements of the last committed
// metadata after a crash or a reopen: the blob's entries reference extent
// pages whose images were committed with it, so exactly the durable
// redirects come back, all visible (epochs died with the process). A core
// that never called InitReclust gets the state it needs to serve them.
func (c *Core) RestorePlacements(blob []byte) error {
	entries, err := reclust.DecodePlacements(blob)
	if err != nil {
		return err
	}
	if c.Reclust == nil {
		if len(entries) == 0 {
			return nil
		}
		if err := c.InitReclust(0, 0); err != nil {
			return err
		}
		c.Reclust.restored = true
	}
	r := c.Reclust
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Place.Replace(entries)
	r.blob = nil
	// The old extent handle's tail may not have survived: later batches
	// start a fresh chain, surviving placements read by RID regardless.
	c.pageMu.Lock()
	c.extent = nil
	c.pageMu.Unlock()
	return nil
}

// --- the extent ---

// ViewPlaced calls fn with a migrated copy by RID, read straight through
// the buffer pool: a view into the extent page, valid while fn runs
// under the page's pin and the shared page lock, so fn must not call
// the core's extent writers or read a placed row again. Deliberately
// independent of the extent file handle: placements that survived a
// crash stay readable even though the post-crash extent chain starts
// fresh.
func (c *Core) ViewPlaced(rid storage.RID, fn func(rec []byte) error) error {
	c.pageMu.RLock()
	defer c.pageMu.RUnlock()
	buf, err := c.Pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	defer c.Pool.Unpin(rid.Page, false)
	rec, err := storage.Page{Buf: buf}.Record(int(rid.Slot))
	if err != nil {
		return err
	}
	return fn(rec)
}

// ReadPlaced is ViewPlaced for a caller that keeps the record: it
// returns a copy.
func (c *Core) ReadPlaced(rid storage.RID) (rec []byte, err error) {
	err = c.ViewPlaced(rid, func(v []byte) error {
		rec = append([]byte(nil), v...)
		return nil
	})
	return rec, err
}

// appendPlaced copies rec onto the extent's tail page (creating the
// extent on first use) and returns the copy's RID. Nothing references
// it until a batch publishes a placement.
func (c *Core) appendPlaced(rec []byte) (storage.RID, error) {
	c.pageMu.Lock()
	defer c.pageMu.Unlock()
	if c.extent == nil {
		f, err := heap.Create(c.Pool)
		if err != nil {
			return storage.RID{}, err
		}
		c.extent = f
	}
	return c.extent.Append(rec)
}

// RewritePlaced replaces the migrated copy at rid in place.
func (c *Core) RewritePlaced(rid storage.RID, rec []byte) error {
	c.pageMu.Lock()
	defer c.pageMu.Unlock()
	buf, err := c.Pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	err = storage.Page{Buf: buf}.Update(int(rid.Slot), rec)
	c.Pool.Unpin(rid.Page, err == nil)
	return err
}
