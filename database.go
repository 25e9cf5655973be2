package corep

import (
	"errors"
	"fmt"
	"io"
	"time"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/engine"
	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/pql"
	"corep/internal/tuple"
	"corep/internal/wal"
)

// This file is the object API: a small complex-object database for user
// schemas, supporting the paper's representation matrix (§2) — an
// object's subobjects can be represented procedurally (a stored
// retrieve query), as an OID list, or value-based (inline) — with
// multi-dot path retrieval and a QUEL-like retrieve language.

// Value is one field value (integer, character, or raw bytes).
type Value = tuple.Value

// Convenience constructors for Row values.
var (
	Int = tuple.IntVal
	Str = tuple.StrVal
)

// Row is an ordered list of field values.
type Row = tuple.Tuple

// OID identifies an object: relation id ⊕ primary key (§2.2).
type OID = object.OID

// FieldDef declares one attribute of a relation.
type FieldDef struct {
	Name string
	Kind FieldKind
}

// FieldKind enumerates attribute types of the object API.
type FieldKind uint8

// Field kinds: integers, character strings, and children — a
// subobject-set attribute holding any of the three primary
// representations.
const (
	FieldInt FieldKind = iota
	FieldString
	FieldChildren
)

// IntField declares an integer attribute.
func IntField(name string) FieldDef { return FieldDef{Name: name, Kind: FieldInt} }

// StrField declares a character attribute.
func StrField(name string) FieldDef { return FieldDef{Name: name, Kind: FieldString} }

// ChildrenField declares a subobject-set attribute.
func ChildrenField(name string) FieldDef { return FieldDef{Name: name, Kind: FieldChildren} }

// Database is an object database over the storage engine — in-memory
// or file-backed, configured once by the Options it is opened with.
type Database struct {
	// core is the storage engine: disk, pool, catalog, the optional
	// outside cache, version store, log (EnableWAL), reclustering extent
	// and observability context, and the commit protocol over them — the
	// same core the workload engine embeds.
	core *engine.Core
	// store is how pql and the path retrievals read the core: its catalog,
	// its placement-aware read view for OID targets — the catalog's own
	// until a Reorganize has placed something — and its heat feed.
	store pql.Store

	// file and meta are set for file-backed databases (persistence).
	file *disk.FileDisk
	meta string
	// rels indexes the relation handles for Relation()/Checkpoint.
	rels map[string]*Relation

	// cacheMode selects what procedural children cache.
	cacheMode CacheMode

	// faults is the installed fault plan, if any (SetFaultPlan).
	faults *disk.FaultPlan

	// WAL sidecar state (EnableWAL; see database_wal.go): lastMetaJSON
	// dedups metadata records; walRecovery holds what
	// OpenDatabaseFile's replay did.
	walPath      string
	lastMetaJSON []byte
	walRecovery  *wal.Result

	// spans routes what the database's one tracer emits
	// (database_obs.go).
	spans spanRouter
	// slow is the slow-query log; nil collects nothing.
	slow *obs.SlowLog
}

// Options fix a database's configuration when it is opened. The zero
// value is an in-memory database with the default pool and every layer
// below off.
type Options struct {
	Path        string // page file, sidecar at Path+".meta", log at Path+".wal"; reopened if there, in memory if ""
	BufferPages int    // pool size in 2 KB pages (the paper used 100); 0 means the default

	CacheUnits int       // outside value cache of this many units (the paper's SizeCache), read by RetrievePath; 0 means none
	CacheMode  CacheMode // what the cache keeps of stored queries; a mode other than CacheValues needs CacheUnits

	Versioned    bool // epoch version store: cached reads pin a snapshot, mutations commit epochs (database_txn.go)
	Reclustering bool // heat tracker (1,024 units) fed by path retrievals, which Reorganize packs (database_reclust.go)

	Trace            io.Writer     // one JSON line per completed span, corepbench -trace's format
	SlowLogCapacity  int           // keep this many of the slowest Query and path calls (SlowQueries); 0 means none
	SlowLogThreshold time.Duration // count slow-log calls at or over it as violations; 0 means none
}

// Errors of Options.Validate.
var (
	ErrNegativeOption        = errors.New("corep: negative BufferPages, CacheUnits, SlowLogCapacity or SlowLogThreshold")
	ErrUnknownCacheMode      = errors.New("corep: unknown cache mode")
	ErrCacheModeWithoutCache = errors.New("corep: cache mode without a cache (set CacheUnits)")
)

// Validate reports the first option Open would refuse, as or wrapping
// one of the errors above.
func (o Options) Validate() error {
	switch {
	case o.BufferPages < 0 || o.CacheUnits < 0 || o.SlowLogCapacity < 0 || o.SlowLogThreshold < 0:
		return ErrNegativeOption
	case o.CacheMode != CacheValues && o.CacheMode != CacheOIDs:
		return fmt.Errorf("%w %d", ErrUnknownCacheMode, o.CacheMode)
	case o.CacheMode != CacheValues && o.CacheUnits == 0:
		return ErrCacheModeWithoutCache
	}
	return nil
}

// Open creates or reopens a database configured by opts. A file-backed
// database is recovered and restored first — its WAL replayed, its
// relations and placements read back — and configured after, so the
// cache's pages come after every page the file holds.
func Open(opts Options) (*Database, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	pages := opts.BufferPages
	if pages == 0 {
		pages = buffer.DefaultPoolSize
	}
	var d *Database
	if opts.Path == "" {
		sim := disk.NewSim()
		d = newDatabase(engine.New(sim, buffer.New(sim, pages)))
	} else {
		var err error
		if d, err = openFile(opts.Path, pages); err != nil {
			return nil, err
		}
	}
	if err := d.configure(opts); err != nil {
		if d.file != nil {
			d.file.Close()
		}
		return nil, err
	}
	return d, nil
}

// configure switches on what o asks for, before any caller holds d.
func (d *Database) configure(o Options) error {
	if o.CacheUnits > 0 {
		if err := d.core.NewCache(o.CacheUnits, max(o.CacheUnits/4, 16), 1); err != nil {
			return err
		}
		d.cacheMode = o.CacheMode
		// The cache's pages are derived data no log needs. Written back
		// now, they leave EnableWAL no dirty frame to mark unlogged — on a
		// small pool every frame, and no eviction victim.
		if d.file != nil {
			if err := d.core.Flush(); err != nil {
				return err
			}
		}
	}
	if o.Versioned {
		d.core.EnableVersioning()
	}
	if o.Reclustering {
		if err := d.core.InitReclust(0, 0); err != nil {
			return fmt.Errorf("corep: %w", err)
		}
	}
	if o.SlowLogCapacity > 0 {
		d.slow = obs.NewSlowLog(o.SlowLogCapacity, o.SlowLogThreshold)
	}
	if o.Trace != nil {
		d.spans.out = obs.NewJSONLSink(o.Trace)
	}
	// An untraced database installs no tracer and pays nothing for one.
	if d.spans.out != nil || d.slow != nil {
		d.core.SetObs(obs.Ctx{Trace: obs.NewTracer(d.core.IOSnapshot, &d.spans)})
	}
	return nil
}

// NewDatabase creates an in-memory database with the given buffer-pool
// size in 2 KB pages (the paper used 100; <= 0 means the default).
func NewDatabase(bufferPages int) *Database {
	d, _ := Open(Options{BufferPages: max(bufferPages, 0)}) // only options left unset here can fail
	return d
}

// newDatabase wraps a fresh core.
func newDatabase(core *engine.Core) *Database {
	return &Database{
		core:  core,
		store: pql.Store{Cat: core.Cat, View: core, Touch: func(owner OID) { core.Touch(int64(owner)) }},
		rels:  map[string]*Relation{},
	}
}

// Relation is a named relation keyed by its first integer attribute.
type Relation struct {
	db     *Database
	rel    *catalog.Relation
	schema *tuple.Schema
	// childAttrs remembers which attributes are children fields.
	childAttrs map[string]bool
}

// CreateRelation creates a B-tree relation. The first field must be an
// integer; it is the primary key, and an object's OID is the relation id
// concatenated with it.
func (d *Database) CreateRelation(name string, fields ...FieldDef) (*Relation, error) {
	if len(fields) == 0 || fields[0].Kind != FieldInt {
		return nil, errors.New("corep: first field must be an integer key")
	}
	tf := make([]tuple.Field, len(fields))
	childAttrs := map[string]bool{}
	for i, f := range fields {
		switch f.Kind {
		case FieldInt:
			tf[i] = tuple.Field{Name: f.Name, Kind: tuple.KInt}
		case FieldString:
			tf[i] = tuple.Field{Name: f.Name, Kind: tuple.KString}
		case FieldChildren:
			tf[i] = tuple.Field{Name: f.Name, Kind: tuple.KBytes}
			childAttrs[f.Name] = true
		default:
			return nil, fmt.Errorf("corep: unknown field kind %d", f.Kind)
		}
	}
	schema := tuple.NewSchema(tf...)
	rel, err := d.core.Cat.CreateBTree(name, schema)
	if err != nil {
		return nil, err
	}
	r := &Relation{db: d, rel: rel, schema: schema, childAttrs: childAttrs}
	d.rels[name] = r
	// Relation creation is a commit of its own under the WAL: the fresh
	// root page and the metadata change must survive a crash even if no
	// tuple is ever inserted.
	if _, err := d.commit(); err != nil {
		delete(d.rels, name)
		return nil, err
	}
	return r, nil
}

// Children is a value for a children attribute: exactly one of the
// three primary representations of §2.1.
type Children struct {
	rep  object.Primary
	oids []OID
	proc string
	// value-based: the subobject rows and the relation whose schema they
	// follow (they are stored inline; the relation only lends its shape).
	rows   []Row
	rowRel *Relation
}

// OIDChildren represents subobjects by identifier (§2.2).
func OIDChildren(oids ...OID) Children { return Children{rep: object.OIDs, oids: oids} }

// ProcChildren represents subobjects by a stored retrieve query
// (§2.1.1), e.g. `retrieve (person.all) where person.age >= 60`.
func ProcChildren(query string) Children { return Children{rep: object.Procedural, proc: query} }

// ValueChildren stores subobject values inline (§2.2.1). The rows follow
// shape's schema; shared subobjects are physically replicated, exactly
// the representation's trade-off.
func ValueChildren(shape *Relation, rows ...Row) Children {
	return Children{rep: object.ValueBased, rows: rows, rowRel: shape}
}

// encode serializes the value for storage in a children attribute.
func (c Children) encode() ([]byte, error) {
	enc := object.Children{Rep: c.rep, OIDs: c.oids, Query: []byte(c.proc)}
	switch c.rep {
	case object.Procedural:
		if _, err := pql.Parse(c.proc); err != nil {
			return nil, fmt.Errorf("corep: stored query does not parse: %w", err)
		}
	case object.ValueBased:
		var err error
		if enc.Nested, err = object.EncodeNested(c.rowRel.schema, c.rows); err != nil {
			return nil, err
		}
		enc.RelID = c.rowRel.rel.ID
	}
	return enc.Encode()
}

// ErrDuplicateKey reports an insert of a key its relation already
// holds: an OID names one object, so the second row is refused and
// nothing is written.
var ErrDuplicateKey = errors.New("corep: duplicate key")

// Insert stores a row. Children attributes take a Children value passed
// via InsertWith; plain Insert requires the relation to have none. A key
// the relation holds is refused with ErrDuplicateKey.
func (r *Relation) Insert(row Row) (OID, error) {
	return r.InsertWith(row, nil)
}

// InsertWith stores a row whose children attributes are given
// separately, keyed by attribute name. A key that names no children
// attribute of the relation is refused.
func (r *Relation) InsertWith(row Row, children map[string]Children) (OID, error) {
	if len(row) != r.schema.NumFields() {
		return 0, fmt.Errorf("corep: %d values for %d fields", len(row), r.schema.NumFields())
	}
	for name := range children {
		if !r.childAttrs[name] {
			return 0, fmt.Errorf("corep: %s has no children attribute %q", r.rel.Name, name)
		}
	}
	full := make(Row, len(row))
	copy(full, row)
	for name := range r.childAttrs {
		i := r.schema.MustIndex(name)
		c, ok := children[name]
		if !ok {
			// Default: an empty OID list.
			c = OIDChildren()
		}
		raw, err := c.encode()
		if err != nil {
			return 0, err
		}
		full[i] = tuple.BytesVal(raw)
	}
	if full[0].Kind != tuple.KInt {
		return 0, errors.New("corep: key value must be an integer")
	}
	key := full[0].Int
	// The key is half of the row's OID: one outside the OID range is
	// refused here, before the row is stored, not by NewOID after.
	if key < 0 || key > object.MaxKey {
		return 0, fmt.Errorf("corep: key %d outside the OID range [0, %d]", key, object.MaxKey)
	}
	rec, err := tuple.Encode(nil, r.schema, full)
	if err != nil {
		return 0, err
	}
	// A new tuple may satisfy stored procedural predicates over this
	// relation; the relation-level lock invalidates those results. Under
	// versioned serving the invalidation commits through the version
	// store so snapshot readers see the watermark before the new epoch.
	locks := []object.OID{relLockOID(r.rel.ID)}
	err = r.db.mutate(locks, func() error { return r.rel.Tree.InsertUnique(key, rec) })
	if errors.Is(err, btree.ErrDuplicateKey) {
		return 0, fmt.Errorf("%w: %s key %d", ErrDuplicateKey, r.rel.Name, key)
	}
	if err != nil {
		return 0, err
	}
	return object.NewOID(r.rel.ID, key), nil
}

// Get fetches the row with the given key.
func (r *Relation) Get(key int64) (Row, error) {
	rec, err := r.rel.Tree.Get(key)
	if err != nil {
		return nil, err
	}
	return tuple.Decode(r.schema, rec)
}

// Fetch resolves any OID to its row, preferring a reclustered copy
// when adaptive clustering has placed one.
func (d *Database) Fetch(oid OID) (Row, error) {
	var row Row
	err := d.store.View.ViewOID(oid, func(rel *catalog.Relation, rec []byte) (err error) {
		row, err = tuple.Decode(rel.Schema, rec)
		return err
	})
	return row, err
}

// FetchBatch resolves many OIDs to their rows. Probes are grouped per
// relation and issued through the B-tree's page-ordered batch lookup, so
// probes landing on the same page share one page fetch; the returned
// rows are in oids order, exactly what a Fetch loop would produce, at
// the same or lower simulated I/O cost.
func (d *Database) FetchBatch(oids []OID) ([]Row, error) {
	rows := make([]Row, len(oids))
	err := d.store.View.ProbeOIDs(new(catalog.Probe), oids, func(i int, rel *catalog.Relation, rec []byte) error {
		// Decode copies strings and bytes out of the view, so the row
		// outlives the batch.
		row, err := tuple.Decode(rel.Schema, rec)
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RelationOf returns the name of the relation an OID references.
func (d *Database) RelationOf(oid OID) (string, error) {
	rel, err := d.core.Cat.ByID(oid.Rel())
	if err != nil {
		return "", err
	}
	return rel.Name, nil
}

// Resolved is the result of resolving a children attribute: either
// subobject OIDs (OID representation — fetch them with Fetch) or
// materialized rows (procedural and value-based representations).
type Resolved struct {
	Representation string
	OIDs           []OID
	Rows           []Row
	// Schema names the row attributes (procedural rows come back as
	// rel.attr names from the stored query's target list).
	Schema []string
}

// Resolve evaluates the children attribute attr of the object with the
// given key. The value is copied out under the leaf's pin into a lent
// buffer and read once the pin is let go, as a copy of the record would
// be; a stored query is parsed from that buffer. The rows' strings are
// one text (pql.NestedRows, pql.Store.Query): keeping one keeps them all.
func (r *Relation) Resolve(key int64, attr string) (*Resolved, error) {
	if !r.childAttrs[attr] {
		return nil, fmt.Errorf("corep: %s.%s is not a children attribute", r.rel.Name, attr)
	}
	ai := r.schema.Index(attr)
	if ai < 0 {
		return nil, fmt.Errorf("corep: %s has no attribute %q", r.rel.Name, attr)
	}
	u := rowBufs.Get().(*rowBuf)
	defer rowBufs.Put(u)
	err := r.rel.Tree.View(key, func(rec []byte) error {
		raw, err := tuple.FieldBytes(r.schema, rec, ai)
		u.rec = append(u.rec[:0], raw...)
		return err
	})
	if err != nil {
		return nil, err
	}
	c, err := object.ParseChildren(u.rec, nil)
	if err != nil {
		return nil, fmt.Errorf("corep: %s.%s: %w", r.rel.Name, attr, err)
	}
	res := &Resolved{Representation: c.Rep.String(), OIDs: c.OIDs}
	switch c.Rep {
	case object.Procedural:
		res.Schema, res.Rows, err = r.db.store.QueryBytes(c.Query)
	case object.ValueBased:
		var rel *catalog.Relation
		if rel, err = r.db.core.Cat.ByID(c.RelID); err == nil {
			res.Schema = rel.Schema.Names()
			res.Rows, err = pql.NestedRows(rel.Schema, c.Nested)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RetrievePath answers a multi-dot query like §3's
//
//	retrieve (group.members.name) where lo ≤ group.key ≤ hi
//
// resolving whichever representation each object stores and projecting
// targetAttr from every subobject. Procedural subobject rows must carry
// targetAttr in the stored query's target list. With Options.CacheUnits
// set, units and stored-query results come from the outside cache
// (database_cache.go); the values are the same.
//
// The answer is two allocations: the values, and one text their strings
// are substrings of. Keeping any one value keeps its answer's whole
// text; copy a string (strings.Clone) to keep it alone.
func (d *Database) RetrievePath(relName, childrenAttr, targetAttr string, lo, hi int64) (vals []Value, err error) {
	return d.retrievePath(relName, []string{childrenAttr, targetAttr}, lo, hi, d.core.Cache != nil)
}

// retrievePath is the retrieval behind RetrievePath and RetrievePathN: a
// range scan of relName whose cursor stands on each object's record
// while its subobjects are fetched — the children value attrs[0] is read
// in place from that view, under the cursor's pin, not copied or re-read
// through a second descent — and is handed, with the segments that
// remain, to the expander, or with cached to expandCached in front of
// it. The values are collected (pql.Store.Collect): the caller gets one
// exact-size copy of them, whose strings are one exact-size text.
func (d *Database) retrievePath(relName string, attrs []string, lo, hi int64, cached bool) (vals []Value, err error) {
	done := d.beginSlow("query.path")
	defer func() { done(err) }()
	sp := d.core.Obs.Start("query.path")
	defer sp.End()
	crel, err := d.core.Cat.Get(relName)
	if err != nil {
		return nil, err
	}
	ai, err := childrenIndex(crel, attrs[0])
	if err != nil {
		return nil, err
	}
	// With versioned serving a cached read runs at one pinned snapshot
	// epoch: cache hits are watermark-checked against it, so an update
	// committing mid-scan can never serve it a unit newer than its
	// snapshot. Epoch 0 is the cache's unversioned protocol.
	var epoch uint64
	if cached && d.core.Versioned() {
		snap := d.core.Versions.Begin()
		defer snap.Release()
		epoch = snap.Epoch()
	}
	return d.store.Collect(func(x *pql.Expander, out []Value) ([]Value, error) {
		err := crel.Tree.Range(lo, hi, func(key int64, rec []byte) (bool, error) {
			if cerr := tuple.Check(crel.Schema, rec); cerr != nil {
				return false, cerr
			}
			kids, cerr := tuple.FieldBytes(crel.Schema, rec, ai)
			if cerr != nil {
				return false, cerr
			}
			if cached {
				out, cerr = d.expandCached(x, object.NewOID(crel.ID, key), kids, attrs[1:], epoch, out)
			} else {
				out, cerr = x.Expand(object.NewOID(crel.ID, key), kids, attrs[1:], out)
			}
			return cerr == nil, cerr
		})
		sp.SetAttr("values", int64(len(out)))
		return out, err
	})
}

// childrenIndex returns the position of children attribute attr in rel,
// or the error for a name that is not one.
func childrenIndex(rel *catalog.Relation, attr string) (int, error) {
	i := rel.Schema.Index(attr)
	if i < 0 {
		return -1, fmt.Errorf("corep: %s has no attribute %q", rel.Name, attr)
	}
	if rel.Schema.Fields[i].Kind != tuple.KBytes {
		return -1, fmt.Errorf("corep: %s.%s is not a children attribute", rel.Name, attr)
	}
	return i, nil
}

// QueryResult is a materialized result of the retrieve language.
type QueryResult struct {
	Columns []string
	Rows    []Row
}

// Query runs a QUEL-like retrieve statement, e.g.
//
//	retrieve (person.name, person.age) where person.age >= 60
//
// The rows are cut from one slab of values whose strings are substrings
// of one text, as RetrievePath's are: keeping any one value keeps its
// answer's whole text.
func (d *Database) Query(src string) (qr *QueryResult, err error) {
	done := d.beginSlow("query.pql")
	defer func() { done(err) }()
	sp := d.core.Obs.Start("query.pql")
	defer sp.End()
	if err := d.core.Relieve(); err != nil {
		return nil, err
	}
	cols, rows, err := d.store.Query(src)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rows", int64(len(rows)))
	return &QueryResult{Columns: cols, Rows: rows}, nil
}

// SetDeviceLatency sets the simulated per-page device latency (no-op on
// backends without latency simulation).
func (d *Database) SetDeviceLatency(l time.Duration) {
	if s, ok := d.core.Disk.(interface{ SetLatency(time.Duration) }); ok {
		s.SetLatency(l)
	}
}

// ResetCold flushes and empties the buffer pool and zeroes the I/O
// counters.
func (d *Database) ResetCold() error { return d.core.ResetCold() }

// RepresentationMatrixCell describes one cell of the paper's Figure 1.
type RepresentationMatrixCell = object.MatrixCell

// RepresentationMatrix returns Figure 1 as data: every (primary, cached)
// combination, its validity, and which study covers it.
func RepresentationMatrix() []RepresentationMatrixCell {
	return object.RepresentationMatrix()
}
