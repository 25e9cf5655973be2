package workload

import (
	"fmt"

	"corep/internal/catalog"
	"corep/internal/object"
)

// Two-level databases back the multi-dot extension experiment: queries
// like
//
//	retrieve (ParentRel.children.children.attr)
//
// "require more levels of relationships to be explored" (§3), and §5.1
// predicts BFSNODUP's duplicate elimination pays more as levels grow.
// The second level reuses the generator's unit model: parents reference
// units of MidRel objects, and each MidRel object references a unit of
// LeafRel objects, with its own sharing factor.

// TwoLevelConfig parameterizes a two-level database. Level 1 (parents →
// mids) uses Config's factors; level 2 (mids → leaves) uses the Leaf*
// factors, defaulting to the level-1 values.
type TwoLevelConfig struct {
	Config
	LeafUseFactor     int // mids sharing a leaf unit
	LeafOverlapFactor int // leaf units sharing a leaf
}

// WithDefaults fills zero fields.
func (c TwoLevelConfig) WithDefaults() TwoLevelConfig {
	c.Config = c.Config.WithDefaults()
	if c.LeafUseFactor == 0 {
		c.LeafUseFactor = c.UseFactor
	}
	if c.LeafOverlapFactor == 0 {
		c.LeafOverlapFactor = c.OverlapFactor
	}
	return c
}

// TwoLevelDB is a two-level database: ParentRel → MidRel → LeafRel.
// Children[0] of the embedded DB is MidRel — its tuples use the parent
// schema and carry their own children attribute — and Children[1] is
// LeafRel.
type TwoLevelDB struct {
	*DB

	// MidUnits[i] is mid-unit i (leaf OIDs); MidUnitOf[m] the unit index
	// of the mid with key m.
	MidUnits  []object.Unit
	MidUnitOf []int
}

// BuildTwoLevel generates a two-level database. Cardinalities follow
// the flat generator level by level: |MidRel| = NumParents × SizeUnit /
// ShareFactor₁, |LeafRel| = |MidRel| × SizeUnit / ShareFactor₂.
func BuildTwoLevel(cfg TwoLevelConfig) (*TwoLevelDB, error) {
	cfg = cfg.WithDefaults()
	if cfg.NumChildRel != 1 {
		return nil, fmt.Errorf("workload: two-level databases use a single mid relation")
	}
	db, err := newSkeleton(cfg.Config)
	if err != nil {
		return nil, err
	}
	t := &TwoLevelDB{DB: db}

	// Cardinalities.
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

	leaf, err := db.loadBTree("LeafRel", db.ChildSchema, nLeaf, db.padFor(db.ChildSchema, cfg.ChildBytes, 0), nil)
	if err != nil {
		return nil, err
	}

	// Leaf units (exact LeafOverlapFactor) and mid→unit assignment
	// (exact LeafUseFactor), mirroring the flat generator.
	t.MidUnits = db.genUnits(numLeafUnits, nLeaf, leaf.ID)
	t.MidUnitOf = db.genAssignment(nMid, numLeafUnits, cfg.LeafUseFactor)

	// MidRel: parent-schema tuples carrying their leaf units.
	midPad := db.padFor(db.ParentSchema, cfg.ChildBytes, cfg.SizeUnit*8)
	mid, err := db.loadBTree("MidRel", db.ParentSchema, nMid, midPad, func(m int64) ([]byte, error) {
		return object.EncodeOIDs(t.MidUnits[t.MidUnitOf[m]]), nil
	})
	if err != nil {
		return nil, err
	}

	// Register both relations; Children[0] must be MidRel so the flat
	// machinery (unit generation over Children, updates) works.
	db.Children = []*catalog.Relation{mid, leaf}
	db.childByRelID[mid.ID] = mid
	db.childByRelID[leaf.ID] = leaf
	db.childCount[mid.ID] = nMid
	db.childCount[leaf.ID] = nLeaf

	// Parent units over MidRel and ParentRel itself.
	db.Units = db.genUnits(numMidUnits, nMid, mid.ID)
	db.ParentUnit = db.genAssignment(cfg.NumParents, numMidUnits, cfg.UseFactor)
	if err := db.loadParents(); err != nil {
		return nil, err
	}
	if err := db.ResetCold(); err != nil {
		return nil, err
	}
	return t, nil
}

// genUnits produces count units of SizeUnit distinct members drawn from
// [0, n) of relation relID, each member appearing with the generator's
// exact-overlap multiplicity.
func (db *DB) genUnits(count, n int, relID uint16) []object.Unit {
	slots := make([]int64, 0, count*db.Cfg.SizeUnit)
	for c := 0; len(slots) < count*db.Cfg.SizeUnit; c++ {
		slots = append(slots, int64(c%n))
	}
	db.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	units := make([]object.Unit, 0, count)
	for u := 0; u < count; u++ {
		chunk := slots[u*db.Cfg.SizeUnit : (u+1)*db.Cfg.SizeUnit]
		db.fixDuplicates(chunk, slots[(u+1)*db.Cfg.SizeUnit:], int64(n))
		unit := make(object.Unit, db.Cfg.SizeUnit)
		for i, c := range chunk {
			unit[i] = object.NewOID(relID, c)
		}
		units = append(units, unit)
	}
	return units
}

// genAssignment assigns each of n referencers one of numUnits units,
// with each unit used exactly useFactor times (padded randomly).
func (db *DB) genAssignment(n, numUnits, useFactor int) []int {
	assign := make([]int, 0, n)
	for u := 0; u < numUnits; u++ {
		for k := 0; k < useFactor; k++ {
			assign = append(assign, u)
		}
	}
	for len(assign) < n {
		assign = append(assign, db.rng.Intn(numUnits))
	}
	assign = assign[:n]
	db.rng.Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	return assign
}
