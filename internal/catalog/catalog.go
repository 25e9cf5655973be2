// Package catalog tracks relations and their storage structures.
//
// The paper's database (§4) holds ParentRel and ChildRel as B-trees on
// OID, ClusterRel as a B-tree on cluster# with an ISAM index on OID, and
// Cache as a hash relation. The catalog maps relation names and ids to
// those structures so that OIDs — "the concatenation of the relation
// identifier and the primary key of a tuple" — can be resolved.
package catalog

import (
	"errors"
	"fmt"
	"sync"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/hashfile"
	"corep/internal/heap"
	"corep/internal/isam"
	"corep/internal/object"
	"corep/internal/tuple"
)

// Kind describes the primary storage structure of a relation.
type Kind uint8

// Storage structure kinds.
const (
	KindBTree Kind = iota // clustered B-tree on the integer key
	KindHeap              // unordered heap file
	KindHash              // static hash file
)

// ErrNoRelation reports an unknown relation name or id.
var ErrNoRelation = errors.New("catalog: no such relation")

// Relation is a named relation plus handles to its storage structures.
type Relation struct {
	Name   string
	ID     uint16
	Kind   Kind
	Schema *tuple.Schema

	Tree *btree.Tree    // when Kind == KindBTree
	Heap *heap.File     // when Kind == KindHeap
	Hash *hashfile.File // when Kind == KindHash

	// Index is an optional secondary ISAM index (ClusterRel.OID in the
	// paper's setup).
	Index *isam.Index
}

// Catalog is the registry of relations sharing one buffer pool.
//
// Lookups and registrations take a catalog-local RW latch, so
// concurrent serving clients resolving relations never contend on
// anything wider (the global serving latch used to cover this; see
// DESIGN.md §11). Relation handles themselves are immutable after
// registration.
type Catalog struct {
	mu     sync.RWMutex
	pool   *buffer.Pool
	byName map[string]*Relation
	byID   map[uint16]*Relation
	nextID uint16
}

// New creates an empty catalog over pool.
func New(pool *buffer.Pool) *Catalog {
	return &Catalog{
		pool:   pool,
		byName: make(map[string]*Relation),
		byID:   make(map[uint16]*Relation),
		nextID: 1,
	}
}

// Pool returns the shared buffer pool.
func (c *Catalog) Pool() *buffer.Pool { return c.pool }

// CreateBTree registers a new B-tree-structured relation.
func (c *Catalog) CreateBTree(name string, schema *tuple.Schema) (*Relation, error) {
	tr, err := btree.Create(c.pool)
	if err != nil {
		return nil, err
	}
	return c.register(&Relation{Name: name, Kind: KindBTree, Schema: schema, Tree: tr})
}

// CreateHeap registers a new heap-structured relation.
func (c *Catalog) CreateHeap(name string, schema *tuple.Schema) (*Relation, error) {
	h, err := heap.Create(c.pool)
	if err != nil {
		return nil, err
	}
	return c.register(&Relation{Name: name, Kind: KindHeap, Schema: schema, Heap: h})
}

// CreateHash registers a new hash-structured relation with the given
// bucket count.
func (c *Catalog) CreateHash(name string, schema *tuple.Schema, buckets int) (*Relation, error) {
	h, err := hashfile.Create(c.pool, buckets)
	if err != nil {
		return nil, err
	}
	return c.register(&Relation{Name: name, Kind: KindHash, Schema: schema, Hash: h})
}

func (c *Catalog) register(r *Relation) (*Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[r.Name]; dup {
		return nil, fmt.Errorf("catalog: relation %q already exists", r.Name)
	}
	r.ID = c.nextID
	c.nextID++
	c.byName[r.Name] = r
	c.byID[r.ID] = r
	return r, nil
}

// Restore registers a relation reconstructed from persisted metadata,
// keeping its original id (reopen path of file-backed databases).
func (c *Catalog) Restore(r *Relation) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[r.Name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", r.Name)
	}
	if _, dup := c.byID[r.ID]; dup {
		return fmt.Errorf("catalog: relation id %d already exists", r.ID)
	}
	c.byName[r.Name] = r
	c.byID[r.ID] = r
	if r.ID >= c.nextID {
		c.nextID = r.ID + 1
	}
	return nil
}

// Drop removes a relation from the catalog. Its pages are not reclaimed
// (the simulated disk never shrinks); experiments drop and rebuild
// temporaries freely.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRelation, name)
	}
	delete(c.byName, name)
	delete(c.byID, r.ID)
	return nil
}

// Get returns the relation named name.
func (c *Catalog) Get(name string) (*Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRelation, name)
	}
	return r, nil
}

// MustGet is Get for relations known to exist; it panics otherwise.
func (c *Catalog) MustGet(name string) *Relation {
	r, err := c.Get(name)
	if err != nil {
		panic(err)
	}
	return r
}

// ByID returns the relation with the given id.
func (c *Catalog) ByID(id uint16) (*Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoRelation, id)
	}
	return r, nil
}

// Names returns all relation names (unordered).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.byName))
	for n := range c.byName {
		out = append(out, n)
	}
	return out
}

// OIDGroup is the part of an OID list that references one relation:
// Pos holds the positions, in list order, of that relation's OIDs.
type OIDGroup struct {
	Rel *Relation
	Pos []int
}

// GroupOIDs splits oids per referenced relation, groups in ascending
// relation-id order so every caller's I/O pattern (and anything learned
// from it) is deterministic.
func (c *Catalog) GroupOIDs(oids []object.OID) ([]OIDGroup, error) {
	var groups []OIDGroup
	for i, oid := range oids {
		id := oid.Rel()
		// One list references a handful of relations: a linear scan
		// of the sorted groups beats a map and allocates nothing.
		g := 0
		for g < len(groups) && groups[g].Rel.ID < id {
			g++
		}
		if g == len(groups) || groups[g].Rel.ID != id {
			rel, err := c.ByID(id)
			if err != nil {
				return nil, err
			}
			groups = append(groups, OIDGroup{})
			copy(groups[g+1:], groups[g:])
			groups[g] = OIDGroup{Rel: rel, Pos: make([]int, 0, len(oids)-i)}
		}
		groups[g].Pos = append(groups[g].Pos, i)
	}
	return groups, nil
}

// GetBatch fetches the group's members of oids through the relation's
// page-ordered B-tree batch lookup and hands each payload to fn with
// its position i in oids. The payload aliases the pinned page and is
// valid only until fn returns, as Tree.GetBatch documents.
func (g OIDGroup) GetBatch(oids []object.OID, fn func(i int, rel *Relation, payload []byte) error) error {
	if g.Rel.Tree == nil {
		return fmt.Errorf("catalog: OID target %s is not B-tree structured", g.Rel.Name)
	}
	keys := make([]int64, len(g.Pos))
	for j, i := range g.Pos {
		keys[j] = oids[i].Key()
	}
	err := g.Rel.Tree.GetBatch(keys, func(j int, payload []byte) error {
		return fn(g.Pos[j], g.Rel, payload)
	})
	if err != nil {
		return fmt.Errorf("catalog: batch probe of %s: %w", g.Rel.Name, err)
	}
	return nil
}

// ViewOID calls fn with the stored record of oid: a view into the pinned
// B-tree leaf, valid until fn returns.
func (c *Catalog) ViewOID(oid object.OID, fn func(rel *Relation, payload []byte) error) error {
	rel, err := c.ByID(oid.Rel())
	if err != nil {
		return err
	}
	if rel.Tree == nil {
		return fmt.Errorf("catalog: OID target %s is not B-tree structured", rel.Name)
	}
	return rel.Tree.View(oid.Key(), func(payload []byte) error { return fn(rel, payload) })
}

// ProbeOIDs resolves a list of OIDs with one sorted sweep per
// referenced relation: probes are grouped per relation, relations
// visited in id order, and fn receives each payload at its original
// position — the output order of a per-OID Get loop at the same or
// lower I/O cost.
func (c *Catalog) ProbeOIDs(oids []object.OID, fn func(i int, rel *Relation, payload []byte) error) error {
	groups, err := c.GroupOIDs(oids)
	if err != nil {
		return err
	}
	for _, g := range groups {
		if err := g.GetBatch(oids, fn); err != nil {
			return err
		}
	}
	return nil
}
