package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/cluster"
	"corep/internal/disk"
	"corep/internal/engine"
	"corep/internal/isam"
	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/storage"
	"corep/internal/tuple"
	"corep/internal/wal"
)

// Field indices shared by ParentRel and ChildRel (after the key):
// ret1=1, ret2=2, ret3=3 — "Ret1, ret2 and ret3 are integer fields and
// occur in the target lists of the retrieve queries" (§4).
const (
	FieldRet1 = 1
	FieldRet2 = 2
	FieldRet3 = 3
)

// DB is one generated database instance: the relations, the generation
// bookkeeping the strategies need (units, assignments), and the
// simulated hardware underneath.
type DB struct {
	// Core is the storage engine underneath (pool, catalog, outside
	// cache — built when Cfg.CacheUnits > 0 — version store, log and
	// extent), shared in shape with the public facade. Its Versions
	// field, when non-nil, switches every strategy's Update from
	// in-place base writes to epoch-published versions and lets
	// retrieves overlay a pinned snapshot epoch; DrainVersions folds
	// them back. Its Reclust field, when non-nil (EnableReclustering), is
	// the online reclustering state: the heat tracker DFSCLUST retrieves
	// feed and the placement map redirecting migrated rows to extent
	// pages.
	*engine.Core

	Cfg Config
	// Disk is the core's disk under its concrete type: the simulated
	// hardware's fault and restore controls are not part of engine.Disk.
	Disk *disk.Sim

	Parent   *catalog.Relation
	Children []*catalog.Relation

	// ClusterRel is built when Cfg.Clustered: one relation holding both
	// objects and subobjects, B-tree on cluster#, ISAM index on OID (§4).
	ClusterRel *catalog.Relation

	ParentSchema  *tuple.Schema
	ChildSchema   *tuple.Schema
	ClusterSchema *tuple.Schema

	// Units[i] is unit i's subobject OIDs; UnitUsers[i] the parent keys
	// referencing it; ParentUnit[p] the unit of parent key p.
	Units      []object.Unit
	UnitUsers  [][]int64
	ParentUnit []int

	// Assignment is the clustering assignment (when Clustered).
	Assignment *cluster.Assignment

	// Latch is the database-level read/write latch for concurrent serving
	// (harness.Serve): retrieves hold it shared, updates exclusive. The
	// single-client harness never takes it, and versioned serving
	// retires it entirely. See DESIGN.md §Concurrency and §11.
	Latch sync.RWMutex

	// WAL, when non-nil, is the in-memory device of the attached
	// write-ahead log (EnableWAL in wal.go): the crash-chaos harness
	// commits through the core, fails syncs here and severs the
	// database with CrashAndRecover.
	WAL *wal.MemDevice

	childByRelID map[uint16]*catalog.Relation
	childCount   map[uint16]int
	rng          *rand.Rand
	zipf         map[int]*zipfTable // per-range draw tables for Cfg.ZipfTheta
}

// AttachObs traces this database into sink: the tracer snapshots this
// DB's disk and pool counters, and the context is propagated to the
// buffer pool and the cache so that operator- and cache-level spans
// share one trace. A nil sink detaches. Each database gets its own
// tracer (spans assume single-threaded use) while the sink may be
// shared.
func (db *DB) AttachObs(sink obs.Sink) {
	db.SetObs(obs.Ctx{Trace: obs.NewTracer(db.IOSnapshot, sink)})
}

// Build generates a database per cfg. The buffer pool is flushed and
// invalidated afterwards, and disk counters reset, so measurements start
// cold and load I/O is not charged to queries.
func Build(cfg Config) (*DB, error) {
	db, err := newSkeleton(cfg)
	if err != nil {
		return nil, err
	}
	cfg = db.Cfg

	if err := db.buildChildren(); err != nil {
		return nil, err
	}
	if err := db.buildUnitsAndParents(); err != nil {
		return nil, err
	}
	if cfg.Clustered {
		if err := db.buildCluster(); err != nil {
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

// newSkeleton creates the empty database: simulated hardware, catalog,
// schemas, generator state. Build and BuildTwoLevel load it.
func newSkeleton(cfg Config) (*DB, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := disk.NewSim()
	pool, err := buffer.NewSharded(d, cfg.PoolPages, cfg.PoolShards)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	db := &DB{
		Core:         engine.New(d, pool),
		Cfg:          cfg,
		Disk:         d,
		childByRelID: make(map[uint16]*catalog.Relation),
		childCount:   make(map[uint16]int),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
	}
	db.ParentSchema = tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "ret1", Kind: tuple.KInt},
		tuple.Field{Name: "ret2", Kind: tuple.KInt},
		tuple.Field{Name: "ret3", Kind: tuple.KInt},
		tuple.Field{Name: "dummy", Kind: tuple.KString, Width: cfg.ParentBytes},
		tuple.Field{Name: "children", Kind: tuple.KBytes},
	)
	db.ChildSchema = tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "ret1", Kind: tuple.KInt},
		tuple.Field{Name: "ret2", Kind: tuple.KInt},
		tuple.Field{Name: "ret3", Kind: tuple.KInt},
		tuple.Field{Name: "dummy", Kind: tuple.KString, Width: cfg.ChildBytes},
	)
	db.ClusterSchema = tuple.NewSchema(
		tuple.Field{Name: "cluster#", Kind: tuple.KInt},
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "ret1", Kind: tuple.KInt},
		tuple.Field{Name: "ret2", Kind: tuple.KInt},
		tuple.Field{Name: "ret3", Kind: tuple.KInt},
		tuple.Field{Name: "dummy", Kind: tuple.KString, Width: cfg.ChildBytes},
		tuple.Field{Name: "children", Kind: tuple.KBytes},
	)

	return db, nil
}

// ChildByRelID resolves a child relation from an OID's relation id.
func (db *DB) ChildByRelID(id uint16) (*catalog.Relation, error) {
	r, ok := db.childByRelID[id]
	if !ok {
		return nil, fmt.Errorf("workload: OID references unknown child relation %d", id)
	}
	return r, nil
}

// ChildCount returns the cardinality of the child relation with the
// given relation id (tracked at build time so callers need no I/O).
func (db *DB) ChildCount(id uint16) int { return db.childCount[id] }

// UnitOf returns the unit referenced by the parent with key p.
func (db *DB) UnitOf(p int64) object.Unit { return db.Units[db.ParentUnit[p]] }

// buildChildren creates and loads the NumChildRel child relations.
func (db *DB) buildChildren() error {
	cfg := db.Cfg
	numUnits := cfg.NumParents / cfg.UseFactor
	for r := 0; r < cfg.NumChildRel; r++ {
		unitsHere := numUnits / cfg.NumChildRel
		if r < numUnits%cfg.NumChildRel {
			unitsHere++
		}
		// Exact-overlap sizing: unitsHere×SizeUnit slots over
		// nChild×OverlapFactor appearances.
		nChild := (unitsHere*cfg.SizeUnit + cfg.OverlapFactor - 1) / cfg.OverlapFactor
		if nChild < cfg.SizeUnit {
			nChild = cfg.SizeUnit
		}
		name := "ChildRel"
		if cfg.NumChildRel > 1 {
			name = fmt.Sprintf("ChildRel%d", r)
		}
		rel, err := db.loadBTree(name, db.ChildSchema, nChild, db.padFor(db.ChildSchema, cfg.ChildBytes, 0), nil)
		if err != nil {
			return err
		}
		db.Children = append(db.Children, rel)
		db.childByRelID[rel.ID] = rel
		db.childCount[rel.ID] = nChild
	}
	return nil
}

// buildUnitsAndParents generates the units (exact OverlapFactor, split
// over the child relations as buildChildren sized them), the
// parent→unit assignment (exact UseFactor up to rounding) and loads
// ParentRel.
func (db *DB) buildUnitsAndParents() error {
	cfg := db.Cfg
	numUnits := cfg.NumParents / cfg.UseFactor
	db.Units = make([]object.Unit, 0, numUnits)
	for r, rel := range db.Children {
		unitsHere := numUnits / cfg.NumChildRel
		if r < numUnits%cfg.NumChildRel {
			unitsHere++
		}
		db.Units = append(db.Units, db.genUnits(unitsHere, db.childCount[rel.ID], rel.ID)...)
	}
	db.ParentUnit = db.genAssignment(cfg.NumParents, numUnits, cfg.UseFactor)
	return db.loadParents()
}

// loadParents fills UnitUsers from ParentUnit and loads ParentRel, each
// parent carrying its unit's OID list.
func (db *DB) loadParents() (err error) {
	db.UnitUsers = make([][]int64, len(db.Units))
	for p, u := range db.ParentUnit {
		db.UnitUsers[u] = append(db.UnitUsers[u], int64(p))
	}
	pad := db.padFor(db.ParentSchema, db.Cfg.ParentBytes, db.Cfg.SizeUnit*8)
	var raw []byte
	db.Parent, err = db.loadBTree("ParentRel", db.ParentSchema, db.Cfg.NumParents, pad, func(p int64) ([]byte, error) {
		raw = object.AppendEncoded(raw[:0], db.UnitOf(p))
		return raw, nil
	})
	return err
}

// loadBTree creates the B-tree relation name and loads n generated
// tuples keyed 0..n-1: OID, three random ret fields, the dummy pad and —
// for the six-attribute schemas — tail(k), a parent's children list or
// inline values, read before the next call to tail. Every row is encoded
// into one reused buffer, which Insert copies into the leaf.
func (db *DB) loadBTree(name string, s *tuple.Schema, n int, pad string, tail func(k int64) ([]byte, error)) (*catalog.Relation, error) {
	rel, err := db.Cat.CreateBTree(name, s)
	if err != nil {
		return nil, err
	}
	t := make(tuple.Tuple, 0, 6)
	var rec []byte
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
		if rec, err = tuple.Encode(rec[:0], s, t); err != nil {
			return nil, err
		}
		if err := rel.Tree.Insert(k, rec); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// fixDuplicates repairs within-unit duplicate subobjects by swapping
// with later slots, falling back to resampling.
func (db *DB) fixDuplicates(chunk, rest []int64, n int64) {
	seen := make(map[int64]bool, len(chunk))
	for i := 0; i < len(chunk); i++ {
		if !seen[chunk[i]] {
			seen[chunk[i]] = true
			continue
		}
		fixed := false
		if len(rest) > 0 {
			for try := 0; try < 8; try++ {
				j := db.rng.Intn(len(rest))
				if !seen[rest[j]] {
					chunk[i], rest[j] = rest[j], chunk[i]
					seen[chunk[i]] = true
					fixed = true
					break
				}
			}
		}
		if !fixed {
			for {
				c := db.rng.Int63n(n)
				if !seen[c] {
					chunk[i] = c
					seen[c] = true
					break
				}
			}
		}
	}
}

// buildCluster computes the clustering assignment and materializes
// ClusterRel: for each parent key p in order, the parent's row followed
// by the subobjects clustered with it in OID order, all under cluster#
// = p; then the static ISAM index on OID.
//
// ClusterSchema is cluster# followed by ParentSchema's fields, and a
// subobject row is ChildSchema's fields plus an empty children list, so
// a row is built from bytes, not tuples: the cluster# followed by the
// parent's stored record, or by the subobject's stored record and an
// empty children field. Those are exactly the bytes decoding the record
// and encoding the widened tuple produce. Parents come from one walk of
// ParentRel, subobjects from one walk of each child relation into an
// arena that lives for this call only, and every row goes through
// Tree.Insert, so ClusterRel's pages are the insert path's.
func (db *DB) buildCluster() error {
	a, err := cluster.Assign(db.Units, db.UnitUsers, db.rng)
	if err != nil {
		return err
	}
	if db.Cfg.ScatterClusters {
		// Decayed-layout mode: re-draw every owner uniformly so almost no
		// subobject sits with a parent that uses it. Runs after Assign so
		// the rng draws up to this point — and hence all generated values —
		// match the statically-clustered build of the same seed.
		oids := make([]object.OID, 0, len(a.Owner))
		for oid := range a.Owner {
			oids = append(oids, oid)
		}
		slices.Sort(oids)
		for _, oid := range oids {
			a.Owner[oid] = db.rng.Int63n(int64(db.Cfg.NumParents))
		}
	}
	db.Assignment = a
	owned := ownedBy(a.Owner, db.Cfg.NumParents)

	rel, err := db.Cat.CreateBTree("ClusterRel", db.ClusterSchema)
	if err != nil {
		return err
	}
	db.ClusterRel = rel

	kids := make(map[uint16]*rowArena, len(db.Children))
	for _, crel := range db.Children {
		if kids[crel.ID], err = loadArena(crel, db.childCount[crel.ID]); err != nil {
			return err
		}
	}
	it, err := db.Parent.Tree.SeekFirst()
	if err != nil {
		return err
	}
	defer it.Close()
	var rec []byte
	for {
		p, payload, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rec = append(tuple.AppendInt(rec[:0], p), payload...)
		if err := rel.Tree.Insert(p, rec); err != nil {
			return err
		}
		for _, oid := range owned[p] {
			kid, err := kids[oid.Rel()].row(oid)
			if err != nil {
				return err
			}
			rec = tuple.AppendBytes(append(tuple.AppendInt(rec[:0], p), kid...), nil)
			if err := rel.Tree.Insert(p, rec); err != nil {
				return err
			}
		}
	}

	// Static ISAM index on ClusterRel.OID.
	entries := make([]isam.Entry, 0, len(owned)+len(a.Owner))
	oidIdx := db.ClusterSchema.MustIndex("OID")
	err = rel.Tree.ScanLeavesRID(func(rid storage.RID, _ int64, payload []byte) (bool, error) {
		oid, err := tuple.Int(db.ClusterSchema, payload, oidIdx)
		if err != nil {
			return false, err
		}
		entries = append(entries, isam.Entry{Key: oid, RID: rid})
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

// ownedBy inverts a clustering assignment: owned[p] lists the
// subobjects parent p owns, in OID order (within-cluster row order
// decides RID placement in ClusterRel, and map order is random). The
// lists share one backing array.
func ownedBy(owner map[object.OID]int64, numParents int) [][]object.OID {
	count := make([]int, numParents)
	for _, p := range owner {
		count[p]++
	}
	owned := make([][]object.OID, numParents)
	flat := make([]object.OID, len(owner))
	off := 0
	for p, n := range count {
		owned[p] = flat[off : off : off+n]
		off += n
	}
	for oid, p := range owner {
		owned[p] = append(owned[p], oid)
	}
	for _, oids := range owned {
		slices.Sort(oids)
	}
	return owned
}

// rowArena holds one relation's stored records, keyed 0..n-1, in one
// buffer: key k's record is data[end[k-1]:end[k]].
type rowArena struct {
	data []byte
	end  []int
}

// loadArena copies the n records of rel, whose keys are 0..n-1, in one
// walk of its leaves.
func loadArena(rel *catalog.Relation, n int) (*rowArena, error) {
	a := &rowArena{end: make([]int, 0, n)}
	it, err := rel.Tree.SeekFirst()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		k, payload, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if k != int64(len(a.end)) {
			return nil, fmt.Errorf("workload: %s key %d where %d was due", rel.Name, k, len(a.end))
		}
		if a.data == nil {
			a.data = make([]byte, 0, n*len(payload))
		}
		a.data = append(a.data, payload...)
		a.end = append(a.end, len(a.data))
	}
	return a, nil
}

// row returns oid's record, a view into the arena.
func (a *rowArena) row(oid object.OID) ([]byte, error) {
	k := oid.Key()
	if a == nil || k >= int64(len(a.end)) {
		return nil, fmt.Errorf("workload: no subobject %v", oid)
	}
	start := 0
	if k > 0 {
		start = a.end[k-1]
	}
	return a.data[start:a.end[k]], nil
}

// padFor computes the dummy padding string that brings an encoded tuple
// of the schema to the target width, given extra variable bytes already
// accounted for (the children OID list).
func (db *DB) padFor(s *tuple.Schema, target, extraVar int) string {
	fixed := 0
	for _, f := range s.Fields {
		switch f.Kind {
		case tuple.KInt:
			fixed += 8
		default:
			fixed += 2
		}
	}
	pad := target - fixed - extraVar
	if pad < 1 {
		pad = 1
	}
	return strings.Repeat("x", pad)
}
