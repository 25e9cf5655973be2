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
	if row, ok, err := d.fetchRedirected(oid); err != nil || ok {
		return row, err
	}
	rel, err := d.core.Cat.ByID(oid.Rel())
	if err != nil {
		return nil, err
	}
	rec, err := rel.Tree.Get(oid.Key())
	if err != nil {
		return nil, err
	}
	return tuple.Decode(rel.Schema, rec)
}

// FetchBatch resolves many OIDs to their rows. Probes are grouped per
// relation and issued through the B-tree's page-ordered batch lookup, so
// probes landing on the same page share one page fetch; the returned
// rows are in oids order, exactly what a Fetch loop would produce, at
// the same or lower simulated I/O cost.
func (d *Database) FetchBatch(oids []OID) ([]Row, error) {
	rows := make([]Row, len(oids))
	rest, pos := oids, []int(nil)
	if d.reclust != nil {
		// Reclustered members read their packed copies — one unit's
		// members share extent pages, so the pool turns the probes into
		// one or two page fetches. Only the rest goes to the B-trees.
		rest = make([]OID, 0, len(oids))
		for i, oid := range oids {
			if row, ok, err := d.fetchRedirected(oid); err != nil {
				return nil, err
			} else if ok {
				rows[i] = row
				continue
			}
			rest, pos = append(rest, oid), append(pos, i)
		}
	}
	err := d.core.Cat.ProbeOIDs(rest, func(i int, rel *catalog.Relation, payload []byte) error {
		if pos != nil {
			i = pos[i]
		}
		// The payload aliases the pinned page; Decode copies strings
		// and bytes out of it, so the row outlives the batch.
		row, err := tuple.Decode(rel.Schema, payload)
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
	r := &Relation{db: d, rel: crel, schema: crel.Schema, childAttrs: map[string]bool{childrenAttr: true}}
	var out []Value
	defer func() {
		sp.SetAttr("values", int64(len(out)))
		d.core.Obs.Histogram("query.io", obs.IOBuckets).Observe(float64(d.core.Disk.Stats().Total() - before))
	}()
	err = crel.Tree.Range(lo, hi, func(key int64, _ []byte) (bool, error) {
		res, rerr := r.Resolve(key, childrenAttr)
		if rerr != nil {
			return false, rerr
		}
		if res.OIDs != nil {
			// OID-represented units are what adaptive clustering can pack;
			// feed the heat tracker so Reorganize knows what is hot.
			d.touchHeat(object.NewOID(crel.ID, key))
			rows, ferr := d.fetchGroup(res.OIDs)
			if ferr != nil {
				return false, ferr
			}
			for k, oid := range res.OIDs {
				srel, ferr := d.core.Cat.ByID(oid.Rel())
				if ferr != nil {
					return false, ferr
				}
				i := srel.Schema.Index(targetAttr)
				if i < 0 {
					return false, fmt.Errorf("corep: %s has no attribute %q", srel.Name, targetAttr)
				}
				out = append(out, rows[k][i])
			}
			return true, nil
		}
		i := indexOfAttr(res.Schema, targetAttr)
		if i < 0 {
			return false, fmt.Errorf("corep: resolved rows have no attribute %q (have %v)", targetAttr, res.Schema)
		}
		for _, row := range res.Rows {
			out = append(out, row[i])
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// indexOfAttr finds attr among names, accepting both "attr" and the
// "rel.attr" form the query language produces.
func indexOfAttr(names []string, attr string) int {
	for i, n := range names {
		if n == attr {
			return i
		}
		if len(n) > len(attr) && n[len(n)-len(attr)-1] == '.' && n[len(n)-len(attr):] == attr {
			return i
		}
	}
	return -1
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
