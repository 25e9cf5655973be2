// Package catalog tracks relations and their storage structures.
//
// The paper's database (§4) holds ParentRel and ChildRel as B-trees on
// OID and ClusterRel as a B-tree on cluster# with an ISAM index on OID
// (its Cache relation, a hash file, belongs to internal/cache). The
// catalog maps relation names and ids to those structures so that
// OIDs — "the concatenation of the relation identifier and the primary
// key of a tuple" — can be resolved.
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/isam"
	"corep/internal/object"
	"corep/internal/tuple"
)

// ErrNoRelation reports an unknown relation name or id.
var ErrNoRelation = errors.New("catalog: no such relation")

// Relation is a named relation plus handles to its storage structures:
// every relation is a clustered B-tree on its integer key, as every
// relation of the paper's testbed is (§4).
type Relation struct {
	Name   string
	ID     uint16
	Schema *tuple.Schema
	Tree   *btree.Tree

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

// CreateBTree registers a new B-tree-structured relation.
func (c *Catalog) CreateBTree(name string, schema *tuple.Schema) (*Relation, error) {
	tr, err := btree.Create(c.pool)
	if err != nil {
		return nil, err
	}
	return c.register(&Relation{Name: name, Schema: schema, Tree: tr})
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

// ViewOID calls fn with the stored record of oid: a view into the pinned
// B-tree leaf, valid until fn returns.
func (c *Catalog) ViewOID(oid object.OID, fn func(rel *Relation, payload []byte) error) error {
	rel, err := c.ByID(oid.Rel())
	if err != nil {
		return err
	}
	return rel.Tree.View(oid.Key(), func(payload []byte) error { return fn(rel, payload) })
}

// Probe is the working memory of ProbeOIDs, which the caller owns and
// hands to one call after another, so a warm call allocates none of it:
// the relations the list references, in ascending id order, the
// positions and keys of the relation being probed, and the B-tree
// batch's visiting order. Nothing fn is handed aliases it. Its zero
// value is ready; one call uses it at a time.
type Probe struct {
	rels  []*Relation
	pos   []int
	keys  []int64
	order []int
	// Rest and RestAt are a read view's that probes only part of a list
	// through the catalog (engine.Core, which reads placed rows from
	// their copies): the rest of the list and each one's position in it.
	// The catalog leaves them alone.
	Rest   []object.OID
	RestAt []int
}

// ProbeOIDs resolves a list of OIDs with one sorted sweep per
// referenced relation, in p: every referenced relation is resolved
// first, then the relations are visited in id order, each with one
// B-tree batch lookup of its OIDs' keys, and fn receives each payload at
// its original position — the output order of a per-OID Get loop at
// the same or lower I/O cost.
func (c *Catalog) ProbeOIDs(p *Probe, oids []object.OID, fn func(i int, rel *Relation, payload []byte) error) error {
	defer func() {
		clear(p.rels)
		p.rels = p.rels[:0]
	}()
	for _, oid := range oids {
		id := oid.Rel()
		// One list references a handful of relations: a linear scan
		// of the sorted ones beats a map and allocates nothing.
		g := 0
		for g < len(p.rels) && p.rels[g].ID < id {
			g++
		}
		if g < len(p.rels) && p.rels[g].ID == id {
			continue
		}
		rel, err := c.ByID(id)
		if err != nil {
			return err
		}
		p.rels = slices.Insert(p.rels, g, rel)
	}
	for _, rel := range p.rels {
		pos, keys := p.pos[:0], p.keys[:0]
		for i, oid := range oids {
			if oid.Rel() == rel.ID {
				pos, keys = append(pos, i), append(keys, oid.Key())
			}
		}
		p.pos, p.keys = pos, keys
		err := rel.Tree.GetBatchIn(&p.order, keys, func(j int, payload []byte) error {
			return fn(pos[j], rel, payload)
		})
		if err != nil {
			return fmt.Errorf("catalog: batch probe of %s: %w", rel.Name, err)
		}
	}
	return nil
}
