package corep

import (
	"errors"
	"fmt"
	"time"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/engine"
	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/planner"
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
// (NewDatabase) or file-backed (OpenDatabaseFile).
type Database struct {
	// core is the storage engine: disk, pool, catalog, the optional
	// outside cache (EnableCache), version store
	// (EnableVersionedServing), log (EnableWAL), reclustering extent and
	// observability context (TraceTo / EnableMetrics), and the commit
	// protocol over them — the same core the workload engine embeds.
	core *engine.Core

	// file and meta are set for file-backed databases (persistence).
	file *disk.FileDisk
	meta string
	// rels indexes the relation handles for Relation()/Checkpoint.
	rels map[string]*Relation

	// cacheMode selects what procedural children cache (SetCacheMode).
	cacheMode CacheMode

	// faults is the installed fault plan, if any (SetFaultPlan).
	faults *disk.FaultPlan

	// reclust is the adaptive-clustering policy state
	// (EnableReclustering; see database_reclust.go); nil keeps reads on
	// the base rows.
	reclust *reclustState

	// WAL sidecar state (EnableWAL; see database_wal.go): lastMetaJSON
	// dedups metadata records; walRecovery holds what
	// OpenDatabaseFile's replay did.
	walPath      string
	lastMetaJSON []byte
	walRecovery  *wal.Result

	// traceSink is TraceTo's sink, kept so slow-query capture can tee
	// span events to both destinations.
	traceSink obs.Sink
	// slow is the slow-query log (EnableSlowLog); nil collects nothing.
	slow *obs.SlowLog

	// planner is the path-traversal cost model (EnablePlanner; see
	// database_planner.go); nil keeps the static probe-everywhere
	// executor, bit-identical to the pre-planner behavior.
	planner      *planner.PathModel
	plannerPlans int64
}

// NewDatabase creates an in-memory database with the given buffer-pool
// size in 2 KB pages (the paper used 100).
func NewDatabase(bufferPages int) *Database {
	if bufferPages <= 0 {
		bufferPages = buffer.DefaultPoolSize
	}
	d := disk.NewSim()
	return &Database{core: engine.New(d, buffer.New(d, bufferPages)), rels: map[string]*Relation{}}
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

// Name returns the relation's name.
func (r *Relation) Name() string { return r.rel.Name }

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

// Representation returns which primary representation the value uses.
func (c Children) Representation() string { return c.rep.String() }

// children-field encoding: 1 tag byte, then representation-specific.
// The tag bytes are shared with the pql executor (multi-dot path
// expansion reads them), so they live in internal/object.
const (
	tagOIDs  = object.TagOIDs
	tagProc  = object.TagProc
	tagValue = object.TagValue
)

func (c Children) encode() ([]byte, error) {
	switch c.rep {
	case object.OIDs:
		return append([]byte{tagOIDs}, object.EncodeOIDs(c.oids)...), nil
	case object.Procedural:
		if _, err := pql.Parse(c.proc); err != nil {
			return nil, fmt.Errorf("corep: stored query does not parse: %w", err)
		}
		return append([]byte{tagProc}, []byte(c.proc)...), nil
	case object.ValueBased:
		raw, err := object.EncodeNested(c.rowRel.schema, c.rows)
		if err != nil {
			return nil, err
		}
		var hdr [3]byte
		hdr[0] = tagValue
		hdr[1] = byte(c.rowRel.rel.ID)
		hdr[2] = byte(c.rowRel.rel.ID >> 8)
		return append(hdr[:], raw...), nil
	}
	return nil, fmt.Errorf("corep: children value without a representation")
}

// Insert stores a row. Children attributes take a Children value passed
// via InsertWith; plain Insert requires the relation to have none.
func (r *Relation) Insert(row Row) (OID, error) {
	return r.InsertWith(row, nil)
}

// InsertWith stores a row whose children attributes are given
// separately, keyed by attribute name.
func (r *Relation) InsertWith(row Row, children map[string]Children) (OID, error) {
	if len(row) != r.schema.NumFields() {
		return 0, fmt.Errorf("corep: %d values for %d fields", len(row), r.schema.NumFields())
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
	rec, err := tuple.Encode(nil, r.schema, full)
	if err != nil {
		return 0, err
	}
	// A new tuple may satisfy stored procedural predicates over this
	// relation; the relation-level lock invalidates those results. Under
	// versioned serving the invalidation commits through the version
	// store so snapshot readers see the watermark before the new epoch.
	locks := []object.OID{relLockOID(r.rel.ID)}
	if err := r.db.mutate(locks, func() error { return r.rel.Tree.Insert(key, rec) }); err != nil {
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
	err := d.viewRecord(oid, func(rel *catalog.Relation, rec []byte) (err error) {
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
	err := d.viewRecords(oids, func(i int, rel *catalog.Relation, rec []byte) error {
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

// viewRecord calls fn with the stored record of oid: its reclustered
// copy when adaptive clustering has placed one, the base row otherwise —
// a view into the pinned B-tree leaf, valid until fn returns.
func (d *Database) viewRecord(oid OID, fn func(rel *catalog.Relation, rec []byte) error) error {
	rel, err := d.core.Cat.ByID(oid.Rel())
	if err != nil {
		return err
	}
	if rec, ok, err := d.placedRecord(oid); err != nil {
		return err
	} else if ok {
		return fn(rel, rec)
	}
	return rel.Tree.View(oid.Key(), func(rec []byte) error { return fn(rel, rec) })
}

// viewRecords is viewRecord for a list: fn sees the record of oids[i]
// under its position i, not necessarily in list order. Reclustered
// members read their packed copies — one unit's members share extent
// pages, so the pool turns the probes into one or two page fetches — and
// only the rest goes to the B-trees, in one page-ordered sweep per
// relation.
func (d *Database) viewRecords(oids []OID, fn func(i int, rel *catalog.Relation, rec []byte) error) error {
	rest, pos := oids, []int(nil)
	if d.reclust != nil {
		rest = make([]OID, 0, len(oids))
		for i, oid := range oids {
			rec, ok, err := d.placedRecord(oid)
			if err != nil {
				return err
			}
			if !ok {
				rest, pos = append(rest, oid), append(pos, i)
				continue
			}
			rel, err := d.core.Cat.ByID(oid.Rel())
			if err != nil {
				return err
			}
			if err := fn(i, rel, rec); err != nil {
				return err
			}
		}
	}
	return d.core.Cat.ProbeOIDs(rest, func(i int, rel *catalog.Relation, rec []byte) error {
		if pos != nil {
			i = pos[i]
		}
		return fn(i, rel, rec)
	})
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
// given key.
func (r *Relation) Resolve(key int64, attr string) (*Resolved, error) {
	if !r.childAttrs[attr] {
		return nil, fmt.Errorf("corep: %s.%s is not a children attribute", r.rel.Name, attr)
	}
	ai := r.schema.Index(attr)
	if ai < 0 {
		return nil, fmt.Errorf("corep: %s has no attribute %q", r.rel.Name, attr)
	}
	row, err := r.Get(key)
	if err != nil {
		return nil, err
	}
	raw := row[ai].Raw
	if len(raw) == 0 {
		return nil, fmt.Errorf("corep: %s.%s is empty", r.rel.Name, attr)
	}
	switch raw[0] {
	case tagOIDs:
		oids, err := object.DecodeOIDs(raw[1:])
		if err != nil {
			return nil, err
		}
		return &Resolved{Representation: object.OIDs.String(), OIDs: oids}, nil
	case tagProc:
		res, err := pql.Run(r.db.core.Cat, string(raw[1:]))
		if err != nil {
			return nil, err
		}
		return &Resolved{
			Representation: object.Procedural.String(),
			Rows:           res.Tuples,
			Schema:         res.Schema.Names(),
		}, nil
	case tagValue:
		if len(raw) < 3 {
			return nil, errors.New("corep: malformed value-based children")
		}
		relID := uint16(raw[1]) | uint16(raw[2])<<8
		rel, err := r.db.core.Cat.ByID(relID)
		if err != nil {
			return nil, err
		}
		rows, err := object.DecodeNested(rel.Schema, raw[3:])
		if err != nil {
			return nil, err
		}
		return &Resolved{
			Representation: object.ValueBased.String(),
			Rows:           rows,
			Schema:         rel.Schema.Names(),
		}, nil
	}
	return nil, fmt.Errorf("corep: unknown children tag %q", raw[0])
}

// RetrievePath answers a multi-dot query like §3's
//
//	retrieve (group.members.name) where lo ≤ group.key ≤ hi
//
// resolving whichever representation each object stores and projecting
// targetAttr from every subobject. Procedural subobject rows must carry
// targetAttr in the stored query's target list.
func (d *Database) RetrievePath(relName, childrenAttr, targetAttr string, lo, hi int64) (vals []Value, err error) {
	done := d.beginSlow("query.path")
	defer func() { done(err) }()
	sp := d.core.Obs.Start("query.path")
	defer sp.End()
	before := d.core.Disk.Stats().Total()
	crel, err := d.core.Cat.Get(relName)
	if err != nil {
		return nil, err
	}
	ai, err := childrenIndex(crel, childrenAttr)
	if err != nil {
		return nil, err
	}
	var out []Value
	defer func() {
		sp.SetAttr("values", int64(len(out)))
		d.core.Obs.Histogram("query.io", obs.IOBuckets).Observe(float64(d.core.Disk.Stats().Total() - before))
	}()
	p := pathProjector{d: d, attr: targetAttr}
	// The cursor stands on each object's record while its subobjects are
	// fetched: the children value is taken from that view, not re-read
	// through a second descent.
	err = crel.Tree.Range(lo, hi, func(key int64, rec []byte) (bool, error) {
		if cerr := tuple.Check(crel.Schema, rec); cerr != nil {
			return false, cerr
		}
		kids, cerr := tuple.DecodeField(crel.Schema, rec, ai)
		if cerr != nil {
			return false, cerr
		}
		if len(kids.Raw) == 0 {
			return false, fmt.Errorf("corep: %s.%s is empty", crel.Name, childrenAttr)
		}
		out, cerr = p.children(object.NewOID(crel.ID, key), kids.Raw, out)
		return cerr == nil, cerr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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

// pathProjector projects one attribute from the subobjects a path
// retrieval reaches. Subobject records are read where they lie — on the
// pinned B-tree leaf, inside the parent's value-based children field —
// checked once, and only attr is materialized from each.
type pathProjector struct {
	d    *Database
	attr string
	// schema and idx remember where attr sits in the subobject schema
	// last seen: a path reaches the same relation over and over.
	schema *tuple.Schema
	idx    int
}

// field checks one subobject record and projects attr from it.
func (p *pathProjector) field(rel *catalog.Relation, rec []byte) (Value, error) {
	if p.schema != rel.Schema {
		p.schema, p.idx = rel.Schema, rel.Schema.Index(p.attr)
	}
	if p.idx < 0 {
		return Value{}, fmt.Errorf("corep: %s has no attribute %q", rel.Name, p.attr)
	}
	if err := tuple.Check(rel.Schema, rec); err != nil {
		return Value{}, err
	}
	return tuple.DecodeField(rel.Schema, rec, p.idx)
}

// children appends attr of every subobject of one object's non-empty
// children value, whichever representation it uses. raw is read in place.
func (p *pathProjector) children(parent OID, raw []byte, out []Value) ([]Value, error) {
	d := p.d
	switch raw[0] {
	case tagOIDs:
		oids, err := object.DecodeOIDs(raw[1:])
		if err != nil {
			return nil, err
		}
		// OID-represented units are what adaptive clustering can pack;
		// feed the heat tracker so Reorganize knows what is hot.
		d.touchHeat(parent)
		return p.members(oids, out)
	case tagProc:
		return pql.Project(d.core.Cat, string(raw[1:]), p.attr, out)
	case tagValue:
		if len(raw) < 3 {
			return nil, errors.New("corep: malformed value-based children")
		}
		rel, err := d.core.Cat.ByID(uint16(raw[1]) | uint16(raw[2])<<8)
		if err != nil {
			return nil, err
		}
		i := rel.Schema.Lookup(p.attr)
		if i < 0 {
			return nil, fmt.Errorf("corep: resolved rows have no attribute %q (have %v)", p.attr, rel.Schema.Names())
		}
		err = object.EachNested(raw[3:], func(rec []byte) error {
			if err := tuple.Check(rel.Schema, rec); err != nil {
				return err
			}
			v, err := tuple.DecodeField(rel.Schema, rec, i)
			out = append(out, v)
			return err
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("corep: unknown children tag %q", raw[0])
}

// member projects attr from one subobject, as Fetch would find it.
func (p *pathProjector) member(oid OID) (v Value, err error) {
	err = p.d.viewRecord(oid, func(rel *catalog.Relation, rec []byte) error {
		v, err = p.field(rel, rec)
		return err
	})
	return v, err
}

// members appends attr of each listed subobject, in list order: as
// FetchBatch would find them or, where the planner prefers it, one probe
// each.
func (p *pathProjector) members(oids []OID, out []Value) ([]Value, error) {
	d := p.d
	at := len(out)
	out = append(out, make([]Value, len(oids))...)
	take := func(i int, rel *catalog.Relation, rec []byte) (err error) {
		out[at+i], err = p.field(rel, rec)
		return err
	}
	planned := d.planner != nil && len(oids) > 0
	tr, relID, before := pql.TraversalBatch, uint16(0), int64(0)
	if planned {
		d.plannerPlans++
		relID = oids[0].Rel()
		tr, _ = d.planner.ChooseTraversal(relID, len(oids))
		before = d.core.Disk.Stats().Reads
	}
	if tr == pql.TraversalProbe {
		for i, oid := range oids {
			v, err := p.member(oid)
			if err != nil {
				return nil, fmt.Errorf("corep: fetch %v: %w", oid, err)
			}
			out[at+i] = v
		}
	} else if err := d.viewRecords(oids, take); err != nil {
		return nil, err
	}
	if planned {
		d.planner.ObserveTraversal(relID, tr, len(oids), d.core.Disk.Stats().Reads-before)
	}
	return out, nil
}

// QueryResult is a materialized result of the retrieve language.
type QueryResult struct {
	Columns []string
	Rows    []Row
}

// Query runs a QUEL-like retrieve statement, e.g.
//
//	retrieve (person.name, person.age) where person.age >= 60
func (d *Database) Query(src string) (qr *QueryResult, err error) {
	done := d.beginSlow("query.pql")
	defer func() { done(err) }()
	sp := d.core.Obs.Start("query.pql")
	defer sp.End()
	before := d.core.Disk.Stats().Total()
	if err := d.core.Relieve(); err != nil {
		return nil, err
	}
	q, err := pql.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := pql.ExecuteWith(d.core.Cat, q, d.plannerOpts())
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rows", int64(len(res.Tuples)))
	d.core.Obs.Histogram("query.io", obs.IOBuckets).Observe(float64(d.core.Disk.Stats().Total() - before))
	return &QueryResult{Columns: res.Schema.Names(), Rows: res.Tuples}, nil
}

// Stats returns cumulative simulated I/O counters.
func (d *Database) Stats() IOStats {
	s := d.core.Disk.Stats()
	return IOStats{Reads: s.Reads, Writes: s.Writes}
}

// SetDeviceLatency sets the simulated per-page device latency (no-op on
// backends without latency simulation).
func (d *Database) SetDeviceLatency(l time.Duration) {
	if s, ok := d.core.Disk.(interface{ SetLatency(time.Duration) }); ok {
		s.SetLatency(l)
	}
}

// EnablePrefetch attaches an asynchronous prefetcher (window depth; 0
// means buffer.DefaultPrefetchDepth) so batch fetches and range scans
// overlap upcoming page reads with query work. It returns the closer
// that stops the prefetch workers; call it when done with the database.
func (d *Database) EnablePrefetch(depth int) func() {
	d.core.Pool.SetPrefetcher(buffer.NewPrefetcher(d.core.Pool, depth, 0))
	return d.core.Close
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
