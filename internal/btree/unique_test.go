package btree

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"corep/internal/disk"
	"corep/internal/storage"
)

// refuseUnique asserts that InsertUnique(key) is refused with
// ErrDuplicateKey and leaves the tree as it found it: its state, its
// pages' bytes and its pins.
func refuseUnique(t *testing.T, tr *Tree, key int64) {
	t.Helper()
	state, pages := tr.State(), treePages(t, tr)
	if err := tr.InsertUnique(key, payload(-key)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("InsertUnique(%d) of a held key: %v, want ErrDuplicateKey", key, err)
	}
	if tr.State() != state {
		t.Fatalf("refused InsertUnique(%d) moved the state: %+v, was %+v", key, tr.State(), state)
	}
	if !slices.EqualFunc(treePages(t, tr), pages, bytes.Equal) {
		t.Fatalf("refused InsertUnique(%d) changed a page", key)
	}
	if n := tr.pool.PinnedCount(); n != 0 {
		t.Fatalf("refused InsertUnique(%d) leaked %d pins", key, n)
	}
}

// treePages copies every page the tree has allocated, in id order.
func treePages(t *testing.T, tr *Tree) [][]byte {
	t.Helper()
	var out [][]byte
	for id := disk.PageID(1); len(out) < tr.count; id++ {
		buf, err := tr.pool.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(buf))
		tr.pool.Unpin(id, false)
	}
	return out
}

// TestInsertUniqueAgainstModel: random keys from a narrow range, so half
// the inserts repeat one; InsertUnique stores exactly the keys a set
// model admits and refuses the rest without a trace.
func TestInsertUniqueAgainstModel(t *testing.T) {
	tr, pool := newTree(t, 8)
	rng := rand.New(rand.NewSource(4))
	held := map[int64]bool{}
	for op := 0; op < 3000; op++ {
		k := int64(rng.Intn(1500))
		if held[k] {
			refuseUnique(t, tr, k)
			continue
		}
		if err := tr.InsertUnique(k, payload(k)); err != nil {
			t.Fatalf("op %d: InsertUnique(%d): %v", op, k, err)
		}
		held[k] = true
	}
	var keys []int64
	if err := tr.Range(0, 1500, func(k int64, p []byte) (bool, error) {
		if !bytes.Equal(p, payload(k)) {
			t.Fatalf("key %d holds %q", k, p)
		}
		keys = append(keys, k)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(held) || !slices.IsSorted(keys) || len(slices.Compact(keys)) != len(held) {
		t.Fatalf("tree holds %d keys, the model %d", len(keys), len(held))
	}
	if tr.LeafPages() < 3 || pool.PinnedCount() != 0 {
		t.Fatalf("%d leaves, %d pins: the script should span leaves and leak nothing", tr.LeafPages(), pool.PinnedCount())
	}
}

// leafKeys returns each leaf's keys, leaves in chain order.
func leafKeys(t *testing.T, tr *Tree) (leaves [][]int64) {
	t.Helper()
	page := disk.InvalidPageID
	if err := tr.ScanLeavesRID(func(rid storage.RID, key int64, _ []byte) (bool, error) {
		if rid.Page != page {
			page = rid.Page
			leaves = append(leaves, nil)
		}
		leaves[len(leaves)-1] = append(leaves[len(leaves)-1], key)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return leaves
}

// TestInsertUniqueLastEntryOfFullLeaf: an ascending load splits high,
// leaving every leaf but the last full; the key a full leaf ends with
// is the entry just before the insertion point, and is refused there,
// before the full leaf would have split.
func TestInsertUniqueLastEntryOfFullLeaf(t *testing.T) {
	tr, _ := newTree(t, 16)
	for k := int64(0); k < 400; k++ {
		if err := tr.InsertUnique(k, payload(k)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leafKeys(t, tr)
	if len(leaves) < 3 {
		t.Fatalf("%d leaves, want several", len(leaves))
	}
	for _, keys := range leaves {
		refuseUnique(t, tr, keys[0])
		refuseUnique(t, tr, keys[len(keys)-1])
	}
	refuseUnique(t, tr, 200)
}

// TestInsertUniqueChecksPreviousLeaf: when the insertion point is a
// leaf's first slot, the key can only sit in the previous leaf, as its
// last entry. A plain Insert of a duplicate after a full leaf starts a
// leaf whose separator is that duplicate; with the duplicate taken out
// of the page, InsertUnique of the key descends into that leaf, lands on
// slot 0, and must find the key one leaf to the left.
func TestInsertUniqueChecksPreviousLeaf(t *testing.T) {
	tr, pool := newTree(t, 16)
	var k int64
	for ; tr.LeafPages() == 1; k++ {
		if err := tr.Insert(k, payload(k)); err != nil {
			t.Fatal(err)
		}
	}
	// The split moved the last key, k-1, into a leaf of its own: put it
	// back at the end of the full first leaf by rebuilding with one less.
	full := k - 1
	tr, pool = newTree(t, 16)
	for i := int64(0); i < full; i++ {
		if err := tr.Insert(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	last := full - 1
	if err := tr.Insert(last, payload(last)); err != nil { // the duplicate: a leaf of its own
		t.Fatal(err)
	}
	for i := full; i < full+5; i++ {
		if err := tr.Insert(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leafKeys(t, tr)
	if len(leaves) != 2 || leaves[0][len(leaves[0])-1] != last || leaves[1][0] != last {
		t.Fatalf("leaves %v: want the duplicate of %d to head the second leaf", leaves, last)
	}
	var dup storage.RID
	if err := tr.ScanLeavesRID(func(rid storage.RID, key int64, _ []byte) (bool, error) {
		dup = rid
		return key != last || rid.Slot != 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	buf, err := pool.Pin(dup.Page)
	if err != nil {
		t.Fatal(err)
	}
	err = storage.Page{Buf: buf}.RemoveAt(int(dup.Slot))
	pool.Unpin(dup.Page, true)
	if err != nil {
		t.Fatal(err)
	}
	if leaves := leafKeys(t, tr); leaves[0][len(leaves[0])-1] != last || leaves[1][0] == last {
		t.Fatalf("leaves %v: want %d only at the end of the first", leaves, last)
	}
	refuseUnique(t, tr, last)
	if err := tr.InsertUnique(full+5, payload(full+5)); err != nil {
		t.Fatal(err)
	}
}
