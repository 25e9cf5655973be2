package workload

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"corep/internal/catalog"
	"corep/internal/cluster"
	"corep/internal/disk"
	"corep/internal/isam"
	"corep/internal/object"
	"corep/internal/storage"
	"corep/internal/tuple"
)

// The reference loader: the generator as it was before ClusterRel was
// built from leaf walks and rows from reused buffers. Every tuple is
// encoded into a fresh buffer, and every ClusterRel row is a Get of the
// source record, a full Decode and a fresh Encode of the widened tuple.
// TestBuildMatchesReference holds the generator to it page for page.

// refLoadBTree is loadBTree encoding every tuple afresh.
func (db *DB) refLoadBTree(name string, s *tuple.Schema, n int, pad string, tail func(k int64) ([]byte, error)) (*catalog.Relation, error) {
	rel, err := db.Cat.CreateBTree(name, s)
	if err != nil {
		return nil, err
	}
	t := make(tuple.Tuple, 0, 6)
	for k := int64(0); k < int64(n); k++ {
		t = append(t[:0],
			tuple.IntVal(int64(object.NewOID(rel.ID, k))),
			tuple.IntVal(db.rng.Int63n(1<<30)),
			tuple.IntVal(db.rng.Int63n(1<<30)),
			tuple.IntVal(db.rng.Int63n(1<<30)),
			tuple.StrVal(pad))
		if tail != nil {
			raw, err := tail(k)
			if err != nil {
				return nil, err
			}
			t = append(t, tuple.BytesVal(raw))
		}
		rec, err := tuple.Encode(nil, s, t)
		if err != nil {
			return nil, err
		}
		if err := rel.Tree.Insert(k, rec); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// refLoadParents is loadParents through refLoadBTree.
func (db *DB) refLoadParents() (err error) {
	db.UnitUsers = make([][]int64, len(db.Units))
	for p, u := range db.ParentUnit {
		db.UnitUsers[u] = append(db.UnitUsers[u], int64(p))
	}
	pad := db.padFor(db.ParentSchema, db.Cfg.ParentBytes, db.Cfg.SizeUnit*8)
	db.Parent, err = db.refLoadBTree("ParentRel", db.ParentSchema, db.Cfg.NumParents, pad, func(p int64) ([]byte, error) {
		return object.EncodeOIDs(db.UnitOf(p)), nil
	})
	return err
}

// refBuild is Build through the reference loader.
func refBuild(cfg Config) (*DB, error) {
	db, err := newSkeleton(cfg)
	if err != nil {
		return nil, err
	}
	cfg = db.Cfg
	numUnits := cfg.NumParents / cfg.UseFactor
	for r := 0; r < cfg.NumChildRel; r++ {
		unitsHere := numUnits / cfg.NumChildRel
		if r < numUnits%cfg.NumChildRel {
			unitsHere++
		}
		nChild := (unitsHere*cfg.SizeUnit + cfg.OverlapFactor - 1) / cfg.OverlapFactor
		if nChild < cfg.SizeUnit {
			nChild = cfg.SizeUnit
		}
		name := "ChildRel"
		if cfg.NumChildRel > 1 {
			name = fmt.Sprintf("ChildRel%d", r)
		}
		rel, err := db.refLoadBTree(name, db.ChildSchema, nChild, db.padFor(db.ChildSchema, cfg.ChildBytes, 0), nil)
		if err != nil {
			return nil, err
		}
		db.Children = append(db.Children, rel)
		db.childByRelID[rel.ID] = rel
		db.childCount[rel.ID] = nChild
	}
	db.Units = make([]object.Unit, 0, numUnits)
	for r, rel := range db.Children {
		unitsHere := numUnits / cfg.NumChildRel
		if r < numUnits%cfg.NumChildRel {
			unitsHere++
		}
		db.Units = append(db.Units, db.genUnits(unitsHere, db.childCount[rel.ID], rel.ID)...)
	}
	db.ParentUnit = db.genAssignment(cfg.NumParents, numUnits, cfg.UseFactor)
	if err := db.refLoadParents(); err != nil {
		return nil, err
	}
	if cfg.Clustered {
		if err := db.refBuildCluster(); err != nil {
			return nil, err
		}
	}
	if cfg.CacheUnits > 0 {
		if err := db.NewCache(cfg.CacheUnits, cacheBuckets, cfg.Seed+1); err != nil {
			return nil, err
		}
	}
	if err := db.ResetCold(); err != nil {
		return nil, err
	}
	return db, nil
}

// refBuildCluster is buildCluster one tuple at a time: Get, Decode and
// Encode per row, owners in a map, the ISAM entries decoded per row.
func (db *DB) refBuildCluster() error {
	a, err := cluster.Assign(db.Units, db.UnitUsers, db.rng)
	if err != nil {
		return err
	}
	if db.Cfg.ScatterClusters {
		oids := make([]object.OID, 0, len(a.Owner))
		for oid := range a.Owner {
			oids = append(oids, oid)
		}
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
		for _, oid := range oids {
			a.Owner[oid] = db.rng.Int63n(int64(db.Cfg.NumParents))
		}
	}
	db.Assignment = a
	owned := make(map[int64][]object.OID)
	for oid, p := range a.Owner {
		owned[p] = append(owned[p], oid)
	}
	for _, oids := range owned {
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	}
	rel, err := db.Cat.CreateBTree("ClusterRel", db.ClusterSchema)
	if err != nil {
		return err
	}
	db.ClusterRel = rel
	childTuple := func(oid object.OID) (tuple.Tuple, error) {
		crel, err := db.ChildByRelID(oid.Rel())
		if err != nil {
			return nil, err
		}
		rec, err := crel.Tree.Get(oid.Key())
		if err != nil {
			return nil, err
		}
		return tuple.Decode(db.ChildSchema, rec)
	}
	for p := int64(0); p < int64(db.Cfg.NumParents); p++ {
		prec, err := db.Parent.Tree.Get(p)
		if err != nil {
			return err
		}
		pt, err := tuple.Decode(db.ParentSchema, prec)
		if err != nil {
			return err
		}
		row := tuple.Tuple{tuple.IntVal(p), pt[0], pt[1], pt[2], pt[3], pt[4], pt[5]}
		rec, err := tuple.Encode(nil, db.ClusterSchema, row)
		if err != nil {
			return err
		}
		if err := rel.Tree.Insert(p, rec); err != nil {
			return err
		}
		for _, oid := range owned[p] {
			ct, err := childTuple(oid)
			if err != nil {
				return err
			}
			row := tuple.Tuple{tuple.IntVal(p), ct[0], ct[1], ct[2], ct[3], ct[4], tuple.BytesVal(nil)}
			rec, err := tuple.Encode(nil, db.ClusterSchema, row)
			if err != nil {
				return err
			}
			if err := rel.Tree.Insert(p, rec); err != nil {
				return err
			}
		}
	}
	var entries []isam.Entry
	oidIdx := db.ClusterSchema.MustIndex("OID")
	err = rel.Tree.ScanLeavesRID(func(rid storage.RID, _ int64, payload []byte) (bool, error) {
		v, err := tuple.DecodeField(db.ClusterSchema, payload, oidIdx)
		if err != nil {
			return false, err
		}
		entries = append(entries, isam.Entry{Key: v.Int, RID: rid})
		return true, nil
	})
	if err != nil {
		return err
	}
	idx, err := isam.Build(db.Pool, entries)
	if err != nil {
		return err
	}
	rel.Index = idx
	return nil
}

// refBuildTwoLevel is BuildTwoLevel through the reference loader.
func refBuildTwoLevel(cfg TwoLevelConfig) (*TwoLevelDB, error) {
	cfg = cfg.WithDefaults()
	db, err := newSkeleton(cfg.Config)
	if err != nil {
		return nil, err
	}
	t := &TwoLevelDB{DB: db}
	numMidUnits := cfg.NumParents / cfg.UseFactor
	nMid := (numMidUnits*cfg.SizeUnit + cfg.OverlapFactor - 1) / cfg.OverlapFactor
	if nMid < cfg.SizeUnit {
		nMid = cfg.SizeUnit
	}
	numLeafUnits := nMid / cfg.LeafUseFactor
	if numLeafUnits < 1 {
		numLeafUnits = 1
	}
	nLeaf := (numLeafUnits*cfg.SizeUnit + cfg.LeafOverlapFactor - 1) / cfg.LeafOverlapFactor
	if nLeaf < cfg.SizeUnit {
		nLeaf = cfg.SizeUnit
	}
	leaf, err := db.refLoadBTree("LeafRel", db.ChildSchema, nLeaf, db.padFor(db.ChildSchema, cfg.ChildBytes, 0), nil)
	if err != nil {
		return nil, err
	}
	t.MidUnits = db.genUnits(numLeafUnits, nLeaf, leaf.ID)
	t.MidUnitOf = db.genAssignment(nMid, numLeafUnits, cfg.LeafUseFactor)
	midPad := db.padFor(db.ParentSchema, cfg.ChildBytes, cfg.SizeUnit*8)
	mid, err := db.refLoadBTree("MidRel", db.ParentSchema, nMid, midPad, func(m int64) ([]byte, error) {
		return object.EncodeOIDs(t.MidUnits[t.MidUnitOf[m]]), nil
	})
	if err != nil {
		return nil, err
	}
	db.Children = []*catalog.Relation{mid, leaf}
	db.childByRelID[mid.ID] = mid
	db.childByRelID[leaf.ID] = leaf
	db.childCount[mid.ID] = nMid
	db.childCount[leaf.ID] = nLeaf
	db.Units = db.genUnits(numMidUnits, nMid, mid.ID)
	db.ParentUnit = db.genAssignment(cfg.NumParents, numMidUnits, cfg.UseFactor)
	if err := db.refLoadParents(); err != nil {
		return nil, err
	}
	if err := db.ResetCold(); err != nil {
		return nil, err
	}
	return t, nil
}

// refBuildValueBased is BuildValueBased through the reference loader,
// less the Homes bookkeeping, which writes no page.
func refBuildValueBased(cfg Config) (*ValueDB, error) {
	base, err := newSkeleton(cfg)
	if err != nil {
		return nil, err
	}
	cfg = base.Cfg
	v := &ValueDB{Core: base.Core, Cfg: cfg, Disk: base.Disk, ChildSchema: base.ChildSchema, Homes: make(map[object.OID][]int64), rng: base.rng}
	v.Schema = tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "ret1", Kind: tuple.KInt},
		tuple.Field{Name: "ret2", Kind: tuple.KInt},
		tuple.Field{Name: "ret3", Kind: tuple.KInt},
		tuple.Field{Name: "dummy", Kind: tuple.KString, Width: cfg.ParentBytes},
		tuple.Field{Name: "values", Kind: tuple.KBytes},
	)
	numUnits := cfg.NumParents / cfg.UseFactor
	nChild := (numUnits*cfg.SizeUnit + cfg.OverlapFactor - 1) / cfg.OverlapFactor
	if nChild < cfg.SizeUnit {
		nChild = cfg.SizeUnit
	}
	v.childRelID = 0xFFFE
	v.childCount = nChild
	childPad := base.padFor(base.ChildSchema, cfg.ChildBytes, 0)
	childTuples := make([]tuple.Tuple, nChild)
	for k := 0; k < nChild; k++ {
		childTuples[k] = tuple.Tuple{
			tuple.IntVal(int64(object.NewOID(v.childRelID, int64(k)))),
			tuple.IntVal(v.rng.Int63n(1 << 30)),
			tuple.IntVal(v.rng.Int63n(1 << 30)),
			tuple.IntVal(v.rng.Int63n(1 << 30)),
			tuple.StrVal(childPad),
		}
	}
	v.Units = base.genUnits(numUnits, nChild, v.childRelID)
	v.ParentUnit = base.genAssignment(cfg.NumParents, numUnits, cfg.UseFactor)
	pad := base.padFor(v.Schema, cfg.ParentBytes, cfg.SizeUnit*8)
	v.Parent, err = base.refLoadBTree("ParentRelV", v.Schema, cfg.NumParents, pad, func(p int64) ([]byte, error) {
		unit := v.Units[v.ParentUnit[p]]
		rows := make([]tuple.Tuple, len(unit))
		for i, oid := range unit {
			rows[i] = childTuples[oid.Key()]
		}
		return object.EncodeNested(v.ChildSchema, rows)
	})
	if err != nil {
		return nil, err
	}
	if err := v.ResetCold(); err != nil {
		return nil, err
	}
	return v, nil
}

// samePages fails unless two simulated disks hold the same pages, byte
// for byte.
func samePages(t *testing.T, name string, got, want *disk.Sim) {
	t.Helper()
	if got.NumPages() != want.NumPages() {
		t.Fatalf("%s: %d pages, reference %d", name, got.NumPages(), want.NumPages())
	}
	a, b := make([]byte, disk.PageSize), make([]byte, disk.PageSize)
	for id := disk.PageID(1); int(id) <= got.NumPages(); id++ {
		errA, errB := got.Read(id, a), want.Read(id, b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: page %d reads %v, reference %v", name, id, errA, errB)
		}
		if errA == nil && !bytes.Equal(a, b) {
			t.Fatalf("%s: page %d differs from the reference", name, id)
		}
	}
}

// sameRelations fails unless both catalogs hold the same relations under
// the same ids, with the same tree states and an ISAM index on the
// same ones (the pages, which samePages compares, hold the rest).
func sameRelations(t *testing.T, name string, got, want *catalog.Catalog) {
	t.Helper()
	for id := uint16(1); ; id++ {
		g, gerr := got.ByID(id)
		w, werr := want.ByID(id)
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil {
				t.Fatalf("%s: relation id %d: %v, reference %v", name, id, gerr, werr)
			}
			return
		}
		if g.Name != w.Name {
			t.Fatalf("%s: relation id %d is %s, reference %s", name, id, g.Name, w.Name)
		}
		if g.Tree.State() != w.Tree.State() {
			t.Fatalf("%s: %s tree state %+v, reference %+v", name, g.Name, g.Tree.State(), w.Tree.State())
		}
		if (g.Index == nil) != (w.Index == nil) {
			t.Fatalf("%s: %s has a different ISAM index", name, g.Name)
		}
	}
}

// TestBuildMatchesReference: the generator builds, for every shape it
// takes, the database the reference loader builds — every disk page
// byte-identical, every relation's tree and index state equal, and the
// ISAM index answering every OID with the same RID.
func TestBuildMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{UseFactor: 1, Clustered: true, PoolPages: 8000, Seed: 1}, // clustered_warm's database
		{NumParents: 2000, UseFactor: 5, Clustered: true, Seed: 2},
		{NumParents: 2000, UseFactor: 1, OverlapFactor: 5, Clustered: true, Seed: 3},
		{NumParents: 1500, UseFactor: 2, NumChildRel: 3, Clustered: true, PoolPages: 8000, Seed: 4},
		{NumParents: 2000, UseFactor: 1, Clustered: true, ScatterClusters: true, Seed: 5},
		{NumParents: 2000, UseFactor: 5, CacheUnits: 100, Seed: 6},
	} {
		got, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBuild(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := want.Cfg.String()
		sameRelations(t, name, got.Cat, want.Cat)
		if cfg.Clustered {
			for oid := range want.Assignment.Owner {
				sameProbe(t, name, got, want, oid)
			}
			for p := int64(0); p < int64(want.Cfg.NumParents); p++ {
				sameProbe(t, name, got, want, object.NewOID(want.Parent.ID, p))
			}
		}
		samePages(t, name, got.Disk, want.Disk)
		t.Logf("%s: %d pages identical", name, got.Disk.NumPages())
	}

	two := TwoLevelConfig{Config: Config{NumParents: 1000, UseFactor: 2, Seed: 7}, LeafUseFactor: 3}
	got2, err := BuildTwoLevel(two)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := refBuildTwoLevel(two)
	if err != nil {
		t.Fatal(err)
	}
	sameRelations(t, "two-level", got2.Cat, want2.Cat)
	samePages(t, "two-level", got2.Disk, want2.Disk)

	vcfg := Config{NumParents: 1000, UseFactor: 2, OverlapFactor: 2, Seed: 8}
	gotV, err := BuildValueBased(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := refBuildValueBased(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRelations(t, "value-based", gotV.Cat, wantV.Cat)
	samePages(t, "value-based", gotV.Disk, wantV.Disk)
}

// sameProbe fails unless both ClusterRel indexes answer oid alike.
func sameProbe(t *testing.T, name string, got, want *DB, oid object.OID) {
	t.Helper()
	g, errG := got.ClusterRel.Index.Probe(int64(oid))
	w, errW := want.ClusterRel.Index.Probe(int64(oid))
	if g != w || (errG == nil) != (errW == nil) {
		t.Fatalf("%s: probe of %v gives %v (%v), reference %v (%v)", name, oid, g, errG, w, errW)
	}
}

// refPatchRet1 is the reference update's patch: decode the record, set
// integer field idx, encode a fresh record.
func refPatchRet1(s *tuple.Schema, rec []byte, idx int, v int64) ([]byte, error) {
	t, err := tuple.Decode(s, rec)
	if err != nil {
		return nil, err
	}
	t[idx] = tuple.IntVal(v)
	return tuple.Encode(nil, s, t)
}

// refApplyUpdateBase is the reference base-layout update: a copying Get,
// decode-set-encode, then Tree.Update's second descent per target.
func (db *DB) refApplyUpdateBase(op Op) error {
	for i, oid := range op.Targets {
		rel, err := db.ChildByRelID(oid.Rel())
		if err != nil {
			return err
		}
		rec, err := rel.Tree.Get(oid.Key())
		if err != nil {
			return err
		}
		nrec, err := refPatchRet1(db.ChildSchema, rec, FieldRet1, op.NewRet1[i])
		if err != nil {
			return err
		}
		if err := rel.Tree.Update(oid.Key(), nrec); err != nil {
			return err
		}
	}
	return nil
}

// refApplyUpdateCluster is the reference clustered update: the row is
// read by one pin of its page and copied, re-encoded, and written back
// by a second pin (the removed GetAt and UpdateAt), and the extent copy
// is re-encoded too.
func (db *DB) refApplyUpdateCluster(op Op) error {
	for i, oid := range op.Targets {
		rid, err := db.ClusterRel.Index.Probe(int64(oid))
		if err != nil {
			return err
		}
		var rec []byte
		if err := db.ClusterRel.Tree.ViewAt(rid, func(p []byte) error {
			rec = append([]byte(nil), p...)
			return nil
		}); err != nil {
			return err
		}
		nrec, err := refPatchRet1(db.ClusterSchema, rec, clusterRet1, op.NewRet1[i])
		if err != nil {
			return err
		}
		if err := db.ClusterRel.Tree.PatchAt(rid, func(p []byte) error {
			copy(p, nrec)
			return nil
		}); err != nil {
			return err
		}
		err = db.WriteThrough(oid, func(rec []byte) error {
			nrec, err := refPatchRet1(db.ClusterSchema, rec, clusterRet1, op.NewRet1[i])
			copy(rec, nrec)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// poolTwin is one side of TestUpdateMatchesReference: a database whose
// every buffer frame the test can read, and the disk's I/O trace.
type poolTwin struct {
	db     *DB
	frames [][]byte
	trace  []string
}

// newPoolTwin builds cfg and fills its pool, one distinct page per
// frame, keeping each frame's buffer: the pool allocates no frame after
// it is full, so these are the frames every later page lands in.
func newPoolTwin(t *testing.T, cfg Config) *poolTwin {
	t.Helper()
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tw := &poolTwin{db: db}
	seen := make(map[*byte]bool)
	for id := disk.PageID(1); db.Pool.Resident() < db.Pool.Capacity(); id++ {
		buf, err := db.Pool.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[&buf[0]] { // a full shard hands a frame out again
			seen[&buf[0]] = true
			tw.frames = append(tw.frames, buf)
		}
		db.Pool.Unpin(id, false)
	}
	if len(tw.frames) != db.Pool.Capacity() {
		t.Fatalf("held %d of %d frames", len(tw.frames), db.Pool.Capacity())
	}
	db.Disk.SetFault(func(op string, id disk.PageID) error {
		tw.trace = append(tw.trace, fmt.Sprint(op, id))
		return nil
	})
	return tw
}

// sameState fails unless the two sides agree on everything an update
// may change: the bytes in every frame, the disk's pages, its counters
// and the I/O trace since the last call, and the pool's misses and
// flushes. Pins and hits are
// not compared: the reference's second descent adds hits, and nothing
// else.
func sameState(t *testing.T, what string, got, want *poolTwin) {
	t.Helper()
	for i := range got.frames {
		if !bytes.Equal(got.frames[i], want.frames[i]) {
			t.Fatalf("%s: frame %d holds other bytes than the reference's", what, i)
		}
	}
	if g, w := got.db.Disk.Stats(), want.db.Disk.Stats(); g != w {
		t.Fatalf("%s: disk %+v, reference %+v", what, g, w)
	}
	g, w := got.db.Pool.Stats(), want.db.Pool.Stats()
	if g.Misses != w.Misses || g.Flushes != w.Flushes || g.Retries != w.Retries {
		t.Fatalf("%s: pool %+v, reference %+v", what, g, w)
	}
	if !slices.Equal(got.trace, want.trace) {
		t.Fatalf("%s: I/O trace %v, reference %v", what, got.trace, want.trace)
	}
	// samePages's reads are the test's own, the same on both sides: the
	// next op's trace starts after them.
	samePages(t, what, got.db.Disk, want.db.Disk)
	got.trace, want.trace = got.trace[:0], want.trace[:0]
}

// TestUpdateMatchesReference runs seeded update streams through the
// in-place update paths and the reference ones on twin databases, and
// compares the two after every op: patching ret1 in place under one pin
// costs the I/O, replacement order and page bytes of the copy, re-encode
// and second descent it replaced.
func TestUpdateMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		recl bool
	}{
		{cfg: Config{NumParents: 2000, UseFactor: 5, PoolPages: 20, Seed: 11}},
		{cfg: Config{NumParents: 2000, UseFactor: 2, NumChildRel: 3, PoolShards: 2, Seed: 12}},
		{cfg: Config{NumParents: 2000, UseFactor: 1, OverlapFactor: 5, PoolPages: 20, Clustered: true, Seed: 13}},
		{cfg: Config{NumParents: 600, UseFactor: 1, PoolPages: 30, Clustered: true, ScatterClusters: true, Seed: 14}, recl: true},
	} {
		got, want := newPoolTwin(t, tc.cfg), newPoolTwin(t, tc.cfg)
		name := got.db.Cfg.String()
		apply, ref := got.db.ApplyUpdateBase, want.db.refApplyUpdateBase
		if tc.cfg.Clustered {
			apply, ref = got.db.ApplyUpdateCluster, want.db.refApplyUpdateCluster
		}
		if tc.recl {
			for _, tw := range []*poolTwin{got, want} {
				if err := tw.db.EnableReclustering(0, 0); err != nil {
					t.Fatal(err)
				}
				for p := int64(0); p < 100; p++ {
					tw.db.Reclust.Heat.Touch(p, 1)
				}
				if _, err := tw.db.ReclustStep(100); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameState(t, name+" before the stream", got, want)
		ops, placed := 0, 0
		for _, op := range got.db.GenSequence(200, 0.5, 10) {
			if op.Kind != OpUpdate {
				continue
			}
			for _, oid := range op.Targets {
				if _, ok := got.db.Placed(oid, 0); ok {
					placed++
				}
			}
			if err := apply(op); err != nil {
				t.Fatal(err)
			}
			if err := ref(op); err != nil {
				t.Fatal(err)
			}
			ops++
			sameState(t, fmt.Sprintf("%s, update %d", name, ops), got, want)
		}
		if ops < 100 || tc.recl && placed == 0 {
			t.Fatalf("%s: %d updates, %d targets with a packed copy", name, ops, placed)
		}
		if gh, wh := got.db.Pool.Stats().Hits, want.db.Pool.Stats().Hits; gh >= wh {
			t.Fatalf("%s: %d pool hits, reference %d: the reference's second descent is missing", name, gh, wh)
		}
	}
}
