// Package btree implements a disk-resident B+tree over the buffer pool.
//
// The paper structures ParentRel and ChildRel "as B-trees on OID",
// which "facilitates the merge-join in BFS" (§4): leaves are chained, so
// a merge join is a sequential leaf scan. ClusterRel is a B-tree on
// cluster#, a non-unique key; the tree therefore supports duplicates by
// qualifying every user key with an insertion sequence number.
//
// Entry layout (leaf):   key int64 | seq uint32 | payload bytes
// Entry layout (inner):  key int64 | seq uint32 | child PageID uint32
// An inner page's Aux word holds its leftmost child pointer.
package btree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

const (
	leafHdr  = 12 // key + seq
	innerLen = 16 // key + seq + child
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("btree: key not found")

// ErrDuplicateKey reports an InsertUnique of a key the tree holds.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// Tree is a B+tree handle. Trees are not safe for concurrent mutation;
// the paper's driver is single-threaded.
type Tree struct {
	pool   *buffer.Pool
	root   disk.PageID
	height int
	count  int
	leaves int
	seq    uint32 // next duplicate-qualifier

	// Scratch for the mutation path, which is single-threaded (above):
	// recBuf backs the leaf record being inserted or rewritten, pageBuf
	// the snapshot of a leaf while a split rebuilds it in place. Both
	// are copied into pages before the call returns.
	recBuf  []byte
	pageBuf []byte
}

// leafRecord assembles key | seq | payload in the tree's record scratch.
func (t *Tree) leafRecord(ref entryRef, payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint64(t.recBuf[:0], uint64(ref.key))
	rec = binary.LittleEndian.AppendUint32(rec, ref.seq)
	rec = append(rec, payload...)
	t.recBuf = rec
	return rec
}

// Create allocates an empty tree (a single empty leaf as root).
func Create(pool *buffer.Pool) (*Tree, error) {
	id, buf, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	storage.Page{Buf: buf}.Init(storage.TypeBTLeaf)
	pool.Unpin(id, true)
	return &Tree{pool: pool, root: id, height: 1, count: 1, leaves: 1}, nil
}

// Open re-attaches to a persisted tree from its saved state (see
// State). The caller must pass back exactly what State returned after
// the last checkpoint.
func Open(pool *buffer.Pool, s State) *Tree {
	return &Tree{pool: pool, root: s.Root, height: s.Height, count: s.Pages, leaves: s.Leaves, seq: s.Seq}
}

// State is the tree's out-of-page metadata, persisted by checkpoints.
type State struct {
	Root   disk.PageID
	Height int
	Pages  int
	Leaves int
	Seq    uint32
}

// State snapshots the tree for persistence.
func (t *Tree) State() State {
	return State{Root: t.root, Height: t.height, Pages: t.count, Leaves: t.leaves, Seq: t.seq}
}

// Height returns the tree height in levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

type entryRef struct {
	key int64
	seq uint32
}

func leafEntryKey(rec []byte) entryRef {
	return entryRef{
		key: int64(binary.LittleEndian.Uint64(rec)),
		seq: binary.LittleEndian.Uint32(rec[8:]),
	}
}

func (a entryRef) less(b entryRef) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Insert adds payload under key. Duplicate keys are allowed; each
// insertion gets a fresh sequence number, and scans return duplicates in
// insertion order.
func (t *Tree) Insert(key int64, payload []byte) error { return t.insert(key, payload, false) }

// InsertUnique is Insert into a tree whose keys are unique: a key the
// tree already holds is refused with ErrDuplicateKey before anything is
// written, the tree's state included. The check rides the insert's own
// descent: it reads the leaf entries on both sides of the insertion
// point and, when that point is a leaf's first slot, the previous
// leaf's last entry.
func (t *Tree) InsertUnique(key int64, payload []byte) error { return t.insert(key, payload, true) }

func (t *Tree) insert(key int64, payload []byte, unique bool) error {
	if leafHdr+len(payload) > disk.PageSize/2-64 {
		return fmt.Errorf("btree: payload of %d bytes too large", len(payload))
	}
	seq := t.seq
	t.seq++
	promoted, right, err := t.insertAt(t.root, t.height, entryRef{key, seq}, payload, unique)
	if errors.Is(err, ErrDuplicateKey) {
		t.seq = seq
	}
	if err != nil {
		return err
	}
	if right == disk.InvalidPageID {
		return nil
	}
	// Root split: build a new root with two children.
	nid, nbuf, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	np := storage.Page{Buf: nbuf}
	np.Init(storage.TypeBTInner)
	np.SetAux(uint64(t.root))
	var rec [innerLen]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(promoted.key))
	binary.LittleEndian.PutUint32(rec[8:], promoted.seq)
	binary.LittleEndian.PutUint32(rec[12:], uint32(right))
	if _, err := np.Insert(rec[:]); err != nil {
		t.pool.Unpin(nid, true)
		return err
	}
	t.pool.Unpin(nid, true)
	t.root = nid
	t.height++
	t.count++
	return nil
}

// insertAt descends into page id at the given level (level 1 == leaf)
// and inserts, refusing a key the tree holds when unique is set. On
// split it returns the promoted separator and the new right sibling.
func (t *Tree) insertAt(id disk.PageID, level int, ref entryRef, payload []byte, unique bool) (entryRef, disk.PageID, error) {
	buf, err := t.pool.Pin(id)
	if err != nil {
		return entryRef{}, disk.InvalidPageID, err
	}
	pg := storage.Page{Buf: buf}

	if level == 1 { // leaf
		pos, err := lowerBound(pg, 0, pg.NumSlots(), ref)
		if err == nil && unique {
			err = t.refuseDuplicate(pg, pos, ref.key)
		}
		if err != nil {
			t.pool.Unpin(id, false)
			return entryRef{}, disk.InvalidPageID, err
		}
		rec := t.leafRecord(ref, payload)
		if err := pg.InsertAt(pos, rec); err == nil {
			t.pool.Unpin(id, true)
			return entryRef{}, disk.InvalidPageID, nil
		} else if !errors.Is(err, storage.ErrPageFull) {
			t.pool.Unpin(id, false)
			return entryRef{}, disk.InvalidPageID, err
		}
		sep, right, err := t.splitLeaf(id, pg, pos, rec)
		t.pool.Unpin(id, true)
		return sep, right, err
	}

	// Inner node: find child to descend into.
	childPos, child := t.childFor(pg, ref)
	t.pool.Unpin(id, false)
	sep, right, err := t.insertAt(child, level-1, ref, payload, unique)
	if err != nil || right == disk.InvalidPageID {
		return entryRef{}, disk.InvalidPageID, err
	}
	// Insert (sep, right) into this inner node after childPos.
	buf, err = t.pool.Pin(id)
	if err != nil {
		return entryRef{}, disk.InvalidPageID, err
	}
	pg = storage.Page{Buf: buf}
	var rec [innerLen]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(sep.key))
	binary.LittleEndian.PutUint32(rec[8:], sep.seq)
	binary.LittleEndian.PutUint32(rec[12:], uint32(right))
	if err := pg.InsertAt(childPos, rec[:]); err == nil {
		t.pool.Unpin(id, true)
		return entryRef{}, disk.InvalidPageID, nil
	} else if !errors.Is(err, storage.ErrPageFull) {
		t.pool.Unpin(id, false)
		return entryRef{}, disk.InvalidPageID, err
	}
	psep, pright, err := t.splitInner(pg, childPos, rec[:])
	t.pool.Unpin(id, true)
	return psep, pright, err
}

// refuseDuplicate returns ErrDuplicateKey when key is held by an entry
// beside slot pos of the pinned leaf pg — the last entry before it or
// the entry at it — or, when pos is the leaf's first slot, by the
// previous leaf's last entry, which it pins beside pg.
func (t *Tree) refuseDuplicate(pg storage.Page, pos int, key int64) error {
	holds := func(pg storage.Page, slot int) error {
		if slot < 0 || slot >= pg.NumSlots() {
			return nil
		}
		rec, err := pg.Record(slot)
		if err == nil && leafEntryKey(rec).key == key {
			err = fmt.Errorf("%w: %d", ErrDuplicateKey, key)
		}
		return err
	}
	if err := holds(pg, pos-1); err != nil {
		return err
	}
	if err := holds(pg, pos); err != nil {
		return err
	}
	prev := pg.Prev()
	if pos > 0 || prev == disk.InvalidPageID {
		return nil
	}
	buf, err := t.pool.Pin(prev)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(prev, false)
	pp := storage.Page{Buf: buf}
	return holds(pp, pp.NumSlots()-1)
}

// noEntry is the error for leaf slot i, which holds no entry.
func noEntry(pg storage.Page, i int) error {
	return fmt.Errorf("%w: leaf slot %d of %d holds no entry", storage.ErrBadSlot, i, pg.NumSlots())
}

// lowerBound returns the first slot in [lo, hi) of a leaf whose entry
// is ≥ ref, or hi if there is none. It is the tree's one leaf search:
// insert, seek, Update, GetBatch and NextGE all go through it. A slot
// that cannot be read is an error, as it is for Next. Each probe reads
// its entry's key and sequence number in place (storage.Page.Head).
func lowerBound(pg storage.Page, lo, hi int, ref entryRef) (int, error) {
	for lo < hi {
		mid := (lo + hi) / 2
		key, seq, ok := pg.Head(mid)
		if !ok {
			return 0, noEntry(pg, mid)
		}
		if (entryRef{int64(key), seq}).less(ref) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// childFor returns, for an inner page, the separator slot index at which
// a new right-sibling separator should be inserted, and the child page
// to descend into for ref.
func (t *Tree) childFor(pg storage.Page, ref entryRef) (int, disk.PageID) {
	// Separators s_0..s_{n-1}; child i covers [s_{i-1}, s_i). Leftmost
	// child (Aux) covers keys < s_0.
	lo, hi := 0, pg.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		key, seq, ok := pg.Head(mid)
		if !ok {
			panic(fmt.Sprintf("btree: corrupt inner: slot %d of %d holds no separator", mid, pg.NumSlots()))
		}
		if !ref.less(entryRef{int64(key), seq}) { // ref >= sep: go right of this separator
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, disk.PageID(pg.Aux())
	}
	rec, err := pg.Record(lo - 1)
	if err != nil {
		panic(fmt.Sprintf("btree: corrupt inner: %v", err))
	}
	return lo, disk.PageID(binary.LittleEndian.Uint32(rec[12:]))
}

// splitLeaf splits a full leaf, inserting rec at logical position pos in
// the combined order. Returns the separator (first entry of the right
// page) and the right page id. The left page (pg) is already pinned by
// the caller and remains pinned.
func (t *Tree) splitLeaf(id disk.PageID, pg storage.Page, pos int, rec []byte) (entryRef, disk.PageID, error) {
	n := pg.NumSlots()
	// pg is rebuilt in place below: read its records from a snapshot.
	t.pageBuf = append(t.pageBuf[:0], pg.Buf...)
	snap := storage.Page{Buf: t.pageBuf}
	all := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		r, err := snap.Record(i)
		if err != nil {
			return entryRef{}, disk.InvalidPageID, err
		}
		all = append(all, r)
	}
	all = append(all, nil)
	copy(all[pos+1:], all[pos:])
	all[pos] = rec

	oldNext := pg.Next()
	oldPrev := pg.Prev()
	half := len(all) / 2
	if pos == n && oldNext == disk.InvalidPageID {
		// Rightmost-leaf append: split high so bulk loads in key order
		// leave packed leaves (matching the paper's tuple densities of
		// ~10 ParentRel / ~20 ChildRel tuples per 2 KB page).
		half = n
	}
	rid, rbuf, err := t.pool.NewPage()
	if err != nil {
		return entryRef{}, disk.InvalidPageID, err
	}
	rp := storage.Page{Buf: rbuf}
	rp.Init(storage.TypeBTLeaf)
	// Rebuild left page with the first half.
	pg.Init(storage.TypeBTLeaf)
	pg.SetNext(rid)
	pg.SetPrev(oldPrev)
	rp.SetPrev(id)
	rp.SetNext(oldNext)
	for _, r := range all[:half] {
		if _, err := pg.Insert(r); err != nil {
			t.pool.Unpin(rid, true)
			return entryRef{}, disk.InvalidPageID, fmt.Errorf("btree: left rebuild: %w", err)
		}
	}
	for _, r := range all[half:] {
		if _, err := rp.Insert(r); err != nil {
			t.pool.Unpin(rid, true)
			return entryRef{}, disk.InvalidPageID, fmt.Errorf("btree: right rebuild: %w", err)
		}
	}
	sep := leafEntryKey(all[half])
	t.pool.Unpin(rid, true)
	// Fix the old next page's Prev pointer.
	if oldNext != disk.InvalidPageID {
		nb, err := t.pool.Pin(oldNext)
		if err != nil {
			return entryRef{}, disk.InvalidPageID, err
		}
		storage.Page{Buf: nb}.SetPrev(rid)
		t.pool.Unpin(oldNext, true)
	}
	t.count++
	t.leaves++
	return sep, rid, nil
}

// splitInner splits a full inner page, inserting rec at slot pos.
// Returns the promoted separator and new right page. pg stays pinned.
func (t *Tree) splitInner(pg storage.Page, pos int, rec []byte) (entryRef, disk.PageID, error) {
	n := pg.NumSlots()
	all := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		r, err := pg.Record(i)
		if err != nil {
			return entryRef{}, disk.InvalidPageID, err
		}
		all = append(all, append([]byte(nil), r...))
	}
	all = append(all, nil)
	copy(all[pos+1:], all[pos:])
	all[pos] = append([]byte(nil), rec...)

	mid := len(all) / 2
	promoted := all[mid]
	sep := entryRef{int64(binary.LittleEndian.Uint64(promoted)), binary.LittleEndian.Uint32(promoted[8:])}
	promotedChild := disk.PageID(binary.LittleEndian.Uint32(promoted[12:]))

	rid, rbuf, err := t.pool.NewPage()
	if err != nil {
		return entryRef{}, disk.InvalidPageID, err
	}
	rp := storage.Page{Buf: rbuf}
	rp.Init(storage.TypeBTInner)
	rp.SetAux(uint64(promotedChild))
	leftAux := pg.Aux()
	pg.Init(storage.TypeBTInner)
	pg.SetAux(leftAux)
	for _, r := range all[:mid] {
		if _, err := pg.Insert(r); err != nil {
			t.pool.Unpin(rid, true)
			return entryRef{}, disk.InvalidPageID, fmt.Errorf("btree: inner left rebuild: %w", err)
		}
	}
	for _, r := range all[mid+1:] {
		if _, err := rp.Insert(r); err != nil {
			t.pool.Unpin(rid, true)
			return entryRef{}, disk.InvalidPageID, fmt.Errorf("btree: inner right rebuild: %w", err)
		}
	}
	t.pool.Unpin(rid, true)
	t.count++
	return sep, rid, nil
}

// Get returns the payload of the first entry with exactly key. The
// returned slice is the caller's own copy.
func (t *Tree) Get(key int64) ([]byte, error) {
	var out []byte
	err := t.View(key, func(payload []byte) error {
		out = append([]byte(nil), payload...)
		return nil
	})
	return out, err
}

// View calls fn with the payload of the first entry with exactly key,
// as a view into the pinned leaf: one descent, one leaf pin, no copy.
// The view is read-only and valid only until fn returns; fn may re-enter
// the pool but must not restructure this tree. A missing key is
// ErrNotFound, as from Get, and fn's own error is returned as is.
func (t *Tree) View(key int64, fn func(payload []byte) error) error {
	return t.visit(key, false, fn)
}

// Patch is View for a writer: fn may change the payload's bytes in
// place, but not its length. The leaf is unpinned dirty if fn returns
// nil and clean otherwise, so fn refuses a record by returning an error
// before it writes. It is one descent and one leaf pin, and the pool's
// replacement order, reads and writes are those of a Get followed by an
// Update of the entry: Update's descent re-touches only the pages Get
// has just made most recent.
func (t *Tree) Patch(key int64, fn func(payload []byte) error) error {
	return t.visit(key, true, fn)
}

// visit runs fn on the first entry with exactly key under its leaf pin,
// the pin released dirty when write is set and fn succeeds.
func (t *Tree) visit(key int64, write bool, fn func(payload []byte) error) error {
	var it Iterator
	if err := t.seek(&it, key); err != nil {
		return err
	}
	defer it.Close()
	k, payload, ok, err := it.Next()
	if err != nil {
		return err
	}
	if !ok || k != key {
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	if err := fn(payload); err != nil {
		return err
	}
	if write {
		t.pool.Unpin(it.page, true)
		it.pg.Buf = nil
	}
	return nil
}

// GetBatch fetches the payloads of many keys in one page-ordered pass.
// Keys are visited in ascending key order regardless of input order;
// consecutive keys that land on the same leaf share a single pin, so a
// batch of random probes costs at most one descent per distinct leaf
// instead of one per key. Sweeps large enough to flood the buffer pool
// additionally pin their leaves read-once (scan resistance), so the
// pool's hot set survives repeated large batches. fn is called once per
// requested index i with the payload of keys[i]; the payload slice
// aliases the pinned page and is valid only until fn returns. Any
// missing key aborts the batch with ErrNotFound, as Get would.
//
// Batches smaller than buffer.BatchSortMin degenerate to a per-key Get
// loop in input order: a handful of probes gains nothing from sorting,
// and reordering them would perturb the buffer pool's eviction sequence
// — small batches must cost exactly what the equivalent Get loop costs.
func (t *Tree) GetBatch(keys []int64, fn func(i int, payload []byte) error) error {
	var order []int
	return t.GetBatchIn(&order, keys, fn)
}

// GetBatchIn is GetBatch sorting the batch's visiting order in *order,
// a buffer the caller keeps from one batch to the next, so a batch
// allocates nothing of its own.
func (t *Tree) GetBatchIn(order *[]int, keys []int64, fn func(i int, payload []byte) error) error {
	if len(keys) == 0 {
		return nil
	}
	if len(keys) < buffer.BatchSortMin {
		for i, k := range keys {
			if err := t.View(k, func(payload []byte) error { return fn(i, payload) }); err != nil {
				return err
			}
		}
		return nil
	}
	// The visiting order, (key, position) ascending.
	*order = slices.Grow((*order)[:0], len(keys))[:len(keys)]
	visit := *order
	for i := range visit {
		visit[i] = i
	}
	slices.SortFunc(visit, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	var (
		leaf = disk.InvalidPageID
		pg   storage.Page
	)
	unpin := func() {
		if leaf != disk.InvalidPageID {
			t.pool.Unpin(leaf, false)
			leaf = disk.InvalidPageID
		}
	}
	// Scan-resistant pins only when the sweep is big enough to flood the
	// pool: mid-size batches benefit from the residency they build up,
	// while a sweep filling most of the pool's frames would evict pages
	// in exactly the order the next sweep needs them. The expected number
	// of distinct leaves n random keys touch is the occupancy estimate
	// L·(1−(1−1/L)^n).
	L := float64(t.leaves)
	distinct := L * (1 - math.Pow(1-1/L, float64(len(keys))))
	scan := distinct >= 0.85*float64(t.pool.Capacity())
	pin := func(id disk.PageID) error {
		var (
			b   []byte
			err error
		)
		if scan {
			b, err = t.pool.PinScan(id)
		} else {
			b, err = t.pool.Pin(id)
		}
		if err != nil {
			return err
		}
		leaf, pg = id, storage.Page{Buf: b}
		return nil
	}
	defer unpin()

	for i := 0; i < len(visit); {
		k := keys[visit[i]]
		fresh := false
		if leaf == disk.InvalidPageID {
			id, err := t.descendToLeaf(entryRef{k, 0})
			if err != nil {
				return err
			}
			if err := pin(id); err != nil {
				return err
			}
			fresh = true
		}
		pos, err := lowerBound(pg, 0, pg.NumSlots(), entryRef{k, 0})
		if err != nil {
			return err
		}
		if pos < pg.NumSlots() {
			rec, err := pg.Record(pos)
			if err != nil {
				return err
			}
			if leafEntryKey(rec).key != k {
				// Keys are ascending and everything before pos is < k, so k
				// is nowhere in the tree.
				return fmt.Errorf("%w: %d", ErrNotFound, k)
			}
			if err := fn(visit[i], rec[leafHdr:]); err != nil {
				return err
			}
			i++
			continue
		}
		// k lies beyond this leaf's last entry.
		if !fresh {
			// Cached leaf from an earlier key: k may be far away, so
			// re-descend rather than chain-walk.
			unpin()
			continue
		}
		// Freshly descended: the entry, if present, opens the next
		// non-empty leaf (the same walk Get does via its iterator).
		next := pg.Next()
		unpin()
		for next != disk.InvalidPageID {
			if err := pin(next); err != nil {
				return err
			}
			if pg.NumSlots() > 0 {
				break
			}
			next = pg.Next()
			unpin()
		}
		if leaf == disk.InvalidPageID {
			return fmt.Errorf("%w: %d", ErrNotFound, k)
		}
		rec, err := pg.Record(0)
		if err != nil {
			return err
		}
		if leafEntryKey(rec).key != k {
			return fmt.Errorf("%w: %d", ErrNotFound, k)
		}
		if err := fn(visit[i], rec[leafHdr:]); err != nil {
			return err
		}
		i++
	}
	return nil
}

// Update replaces the payload of the first entry with exactly key. The
// paper's updates modify tuples in place; same-size or smaller payloads
// stay in place, larger ones re-pack within the page.
func (t *Tree) Update(key int64, payload []byte) error {
	id, err := t.descendToLeaf(entryRef{key, 0})
	if err != nil {
		return err
	}
	for id != disk.InvalidPageID {
		buf, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		pg := storage.Page{Buf: buf}
		pos, err := lowerBound(pg, 0, pg.NumSlots(), entryRef{key, 0})
		if err != nil {
			t.pool.Unpin(id, false)
			return err
		}
		if pos < pg.NumSlots() {
			rec, err := pg.Record(pos)
			if err != nil {
				t.pool.Unpin(id, false)
				return err
			}
			e := leafEntryKey(rec)
			if e.key != key {
				t.pool.Unpin(id, false)
				return fmt.Errorf("%w: %d", ErrNotFound, key)
			}
			nrec := t.leafRecord(e, payload)
			err = pg.Update(pos, nrec)
			if errors.Is(err, storage.ErrPageFull) {
				pg.Compact()
				// Compaction may renumber slots.
				if pos, err = lowerBound(pg, 0, pg.NumSlots(), entryRef{key, 0}); err != nil {
					t.pool.Unpin(id, true)
					return err
				}
				err = pg.Update(pos, nrec)
			}
			if errors.Is(err, storage.ErrPageFull) {
				// The grown record does not fit even after compaction:
				// fall back to delete + reinsert, which goes through the
				// normal split path. The entry gets a fresh sequence
				// number, so among duplicates of the same key it moves to
				// the back; the paper's relations have unique keys.
				if rerr := pg.RemoveAt(pos); rerr != nil {
					t.pool.Unpin(id, true)
					return rerr
				}
				t.pool.Unpin(id, true)
				return t.Insert(key, payload)
			}
			t.pool.Unpin(id, true)
			return err
		}
		next := pg.Next()
		t.pool.Unpin(id, false)
		id = next
	}
	return fmt.Errorf("%w: %d", ErrNotFound, key)
}

// descendToLeaf returns the leaf page that would contain ref.
func (t *Tree) descendToLeaf(ref entryRef) (disk.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		buf, err := t.pool.Pin(id)
		if err != nil {
			return disk.InvalidPageID, err
		}
		pg := storage.Page{Buf: buf}
		_, child := t.childFor(pg, ref)
		t.pool.Unpin(id, false)
		id = child
	}
	return id, nil
}

// Iterator is the tree's one cursor: it walks leaf entries in key order
// from a Seek point, a page at a time — Next one entry, NextGE ahead to
// a key. It pins a leaf when it enters it and holds that single pin
// until it leaves — for the successor leaf (the old leaf is released before the new one is pinned, so the pool
// chooses every victim from the same candidates a pin-per-entry walk
// would offer it), on exhaustion, on error, or on Close. Between Seek
// and Close an iterator therefore holds at most one page, and a caller
// that abandons it without Close leaks that pin.
//
// While a leaf is held the caller may re-enter the pool (nested probes,
// other cursors); it must not insert into or restructure this tree.
type Iterator struct {
	t    *Tree
	page disk.PageID  // the leaf the walk stands on
	pg   storage.Page // its pinned buffer; Buf is nil while no leaf is held
	slot int
	done bool
}

// SeekGE positions an iterator at the first entry with key ≥ key. The
// leaf it lands on is already pinned and positioned for the first Next.
func (t *Tree) SeekGE(key int64) (*Iterator, error) {
	it := new(Iterator)
	if err := t.seek(it, key); err != nil {
		return nil, err
	}
	return it, nil
}

// SeekGEInto is SeekGE into an iterator the caller owns, closed or never
// used, for a reader that opens one scan after another.
func (t *Tree) SeekGEInto(it *Iterator, key int64) error { return t.seek(it, key) }

// seek is SeekGE into a caller-provided iterator.
func (t *Tree) seek(it *Iterator, key int64) error {
	id, err := t.descendToLeaf(entryRef{key, 0})
	if err != nil {
		return err
	}
	buf, err := t.pool.Pin(id)
	if err != nil {
		return err
	}
	pg := storage.Page{Buf: buf}
	slot, err := lowerBound(pg, 0, pg.NumSlots(), entryRef{key, 0})
	if err != nil {
		t.pool.Unpin(id, false)
		return err
	}
	*it = Iterator{t: t, page: id, pg: pg, slot: slot}
	return nil
}

// SeekFirst positions an iterator at the smallest entry. The first leaf
// is pinned by the first Next, not here.
func (t *Tree) SeekFirst() (*Iterator, error) {
	it := new(Iterator)
	if err := t.SeekFirstInto(it); err != nil {
		return nil, err
	}
	return it, nil
}

// SeekFirstInto is SeekFirst into an iterator the caller owns, closed or
// never used, as SeekGEInto is SeekGE's.
func (t *Tree) SeekFirstInto(it *Iterator) error {
	id := t.root
	for level := t.height; level > 1; level-- {
		buf, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		child := disk.PageID(storage.Page{Buf: buf}.Aux())
		t.pool.Unpin(id, false)
		id = child
	}
	*it = Iterator{t: t, page: id}
	return nil
}

// Next returns the next entry's key and payload. ok=false signals
// exhaustion. The payload is a view into the pinned leaf: it is valid
// until the next call to Next, NextGE or Close and must not be
// modified; a caller that keeps it longer copies it.
func (it *Iterator) Next() (key int64, payload []byte, ok bool, err error) {
	if it.pg.Buf == nil || it.slot >= it.pg.NumSlots() {
		if ok, err := it.enter(); !ok {
			return 0, nil, false, err
		}
	}
	rec, err := it.pg.Record(it.slot)
	if err != nil {
		it.Close()
		return 0, nil, false, err
	}
	it.slot++
	return int64(binary.LittleEndian.Uint64(rec)), rec[leafHdr:], true, nil
}

// NextGE returns the first entry from the cursor on whose key is ≥ key —
// the entry a run of Next calls would stop at, with the same view
// contract — without decoding the entries it passes over. It reads the
// held leaf's last key: if that is ≥ key, a binary search of the leaf's
// unread slots finds the entry; otherwise it leaves the leaf for its
// successor. It therefore pins exactly the leaves, in the same order and
// once each, that the Next calls would have pinned. A key at or below
// the next entry's is Next.
func (it *Iterator) NextGE(key int64) (int64, []byte, bool, error) {
	for {
		if it.pg.Buf == nil || it.slot >= it.pg.NumSlots() {
			if ok, err := it.enter(); !ok {
				return 0, nil, false, err
			}
		}
		n := it.pg.NumSlots()
		last, _, ok := it.pg.Head(n - 1)
		if !ok {
			err := noEntry(it.pg, n-1)
			it.Close()
			return 0, nil, false, err
		}
		if int64(last) >= key {
			// The last slot qualifies, so the search need not look at it.
			var err error
			if it.slot, err = lowerBound(it.pg, it.slot, n-1, entryRef{key, 0}); err != nil {
				it.Close()
				return 0, nil, false, err
			}
			return it.Next()
		}
		it.slot = n
	}
}

// enter makes the walk stand on a held leaf with an unread slot: it pins
// the current leaf if it is not held, and while the held leaf has nothing
// left it releases it and pins the successor. false means the chain is
// exhausted (nothing is then held) or a pin failed.
func (it *Iterator) enter() (bool, error) {
	for !it.done {
		if it.pg.Buf == nil {
			buf, err := it.t.pool.Pin(it.page)
			if err != nil {
				return false, err
			}
			it.pg = storage.Page{Buf: buf}
		}
		if it.slot < it.pg.NumSlots() {
			return true, nil
		}
		next := it.pg.Next()
		it.release()
		if next == disk.InvalidPageID {
			it.done = true
			break
		}
		it.page = next
		it.slot = 0
	}
	return false, nil
}

// release unpins the held leaf, if any.
func (it *Iterator) release() {
	if it.pg.Buf != nil {
		it.t.pool.Unpin(it.page, false)
		it.pg.Buf = nil
	}
}

// Close releases the leaf the iterator holds and ends the walk. It is
// idempotent, and required on every path that stops before exhaustion.
func (it *Iterator) Close() {
	it.release()
	it.done = true
}

// ScanLeavesRID calls fn for every entry in key order with its record id
// (leaf page + slot). ISAM indexes over a bulk-loaded tree are built from
// this scan; the RIDs stay valid as long as no further inserts occur and
// updates keep record sizes unchanged — exactly the paper's static
// ClusterRel environment. fn runs under the leaf's pin: the payload is a
// read-only view valid until fn returns, and fn may re-enter the pool
// but must not restructure this tree.
func (t *Tree) ScanLeavesRID(fn func(rid storage.RID, key int64, payload []byte) (bool, error)) error {
	id := t.root
	for level := t.height; level > 1; level-- {
		buf, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		child := disk.PageID(storage.Page{Buf: buf}.Aux())
		t.pool.Unpin(id, false)
		id = child
	}
	for id != disk.InvalidPageID {
		buf, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		pg := storage.Page{Buf: buf}
		for i, n := 0, pg.NumSlots(); i < n; i++ {
			rec, err := pg.Record(i)
			cont := false
			if err == nil {
				key := int64(binary.LittleEndian.Uint64(rec))
				cont, err = fn(storage.RID{Page: id, Slot: uint16(i)}, key, rec[leafHdr:])
			}
			if !cont {
				t.pool.Unpin(id, false)
				return err
			}
		}
		next := pg.Next()
		t.pool.Unpin(id, false)
		id = next
	}
	return nil
}

// ViewAt calls fn with the payload stored at a leaf RID previously
// obtained from ScanLeavesRID, under the leaf's pin and with View's
// contract: a read-only view valid until fn returns.
func (t *Tree) ViewAt(rid storage.RID, fn func(payload []byte) error) error {
	return t.visitAt(rid, false, fn)
}

// PatchAt is ViewAt for a writer, with Patch's contract: fn changes the
// payload in place, keeping its length, and the leaf is unpinned dirty
// only if fn succeeds.
func (t *Tree) PatchAt(rid storage.RID, fn func(payload []byte) error) error {
	return t.visitAt(rid, true, fn)
}

// visitAt is visit for a RID: one pin of the RID's page.
func (t *Tree) visitAt(rid storage.RID, write bool, fn func(payload []byte) error) error {
	buf, err := t.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	rec, err := storage.Page{Buf: buf}.Record(int(rid.Slot))
	if err == nil {
		err = fn(rec[leafHdr:])
	}
	t.pool.Unpin(rid.Page, write && err == nil)
	return err
}

// LeafPages returns the number of leaf pages — the sequential-scan cost
// the BFS optimizer weighs against per-tuple probes (§3.1 [2]).
func (t *Tree) LeafPages() int { return t.leaves }

// Range calls fn for each entry with lo ≤ key ≤ hi in key order.
func (t *Tree) Range(lo, hi int64, fn func(key int64, payload []byte) (bool, error)) error {
	it, err := t.SeekGE(lo)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		k, p, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok || k > hi {
			return nil
		}
		cont, err := fn(k, p)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
}

// Len counts entries with a full scan (testing/verification aid).
func (t *Tree) Len() (int, error) {
	it, err := t.SeekFirst()
	if err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// CheckInvariants verifies structural invariants: keys nondecreasing
// across a full scan, and leaf chain consistency. Tests call this after
// randomized workloads.
func (t *Tree) CheckInvariants() error {
	it, err := t.SeekFirst()
	if err != nil {
		return err
	}
	defer it.Close()
	var prev int64
	first := true
	for {
		k, _, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !first && k < prev {
			return fmt.Errorf("btree: keys out of order: %d after %d", k, prev)
		}
		prev, first = k, false
	}
}
