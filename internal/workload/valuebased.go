package workload

import (
	"math/rand"

	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/engine"
	"corep/internal/object"
	"corep/internal/tuple"
)

// Value-based databases store subobject values inline in the parents
// (§2.2.1): "the 'value' ... of a subobject is stored with the
// referencing object. Of course, when a subobject is shared by more
// than one object we need to replicate its value wherever required."
// The paper defers comparing this column of the representation matrix
// against the OID column to "a future study" (§2.4) — the ext-value
// experiment runs that comparison.
//
// Logical content matches the OID-representation database built from
// the same Config: the same units of the same subobjects, assigned to
// the same number of parents; only the physical representation differs.

// ValueDB is a database using the value-based primary representation.
type ValueDB struct {
	*engine.Core

	Cfg  Config
	Disk *disk.Sim // the core's disk under its concrete type

	// Parent holds everything: each tuple embeds its unit's subobject
	// values in the `values` attribute.
	Parent *catalog.Relation
	Schema *tuple.Schema

	// ChildSchema shapes the embedded subobject tuples.
	ChildSchema *tuple.Schema

	// Homes maps each logical subobject to the parents embedding a
	// replica — the update fan-out of the representation.
	Homes map[object.OID][]int64

	// Units and ParentUnit mirror the flat generator's bookkeeping.
	Units      []object.Unit
	ParentUnit []int

	childRelID uint16
	childCount int
	rng        *rand.Rand
}

// BuildValueBased generates a value-based database for cfg.
func BuildValueBased(cfg Config) (*ValueDB, error) {
	base, err := newSkeleton(cfg)
	if err != nil {
		return nil, err
	}
	cfg = base.Cfg
	v := &ValueDB{
		Core:        base.Core,
		Cfg:         cfg,
		Disk:        base.Disk,
		ChildSchema: base.ChildSchema,
		Homes:       make(map[object.OID][]int64),
		rng:         base.rng,
	}
	v.Schema = tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "ret1", Kind: tuple.KInt},
		tuple.Field{Name: "ret2", Kind: tuple.KInt},
		tuple.Field{Name: "ret3", Kind: tuple.KInt},
		tuple.Field{Name: "dummy", Kind: tuple.KString, Width: cfg.ParentBytes},
		tuple.Field{Name: "values", Kind: tuple.KBytes},
	)

	// Generate the logical subobjects in memory (they have no relation of
	// their own — value-based subobjects "cannot be referenced from
	// elsewhere", §2.2.1). A pseudo relation id tags their OIDs for the
	// Homes bookkeeping.
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

	// Size the dummy so the non-values part matches the OID layout's
	// parent body (fixed fields + padding ≈ ParentBytes − unit list).
	pad := base.padFor(v.Schema, cfg.ParentBytes, cfg.SizeUnit*8)
	v.Parent, err = base.loadBTree("ParentRelV", v.Schema, cfg.NumParents, pad, func(p int64) ([]byte, error) {
		unit := v.Units[v.ParentUnit[p]]
		rows := make([]tuple.Tuple, len(unit))
		for i, oid := range unit {
			rows[i] = childTuples[oid.Key()]
			v.Homes[oid] = append(v.Homes[oid], p)
		}
		return object.EncodeNested(v.ChildSchema, rows)
	})
	if err != nil {
		return nil, err
	}
	// Deduplicate Homes entries (a parent embeds a subobject once even if
	// assignment padding repeated a unit).
	for oid, homes := range v.Homes {
		seen := map[int64]bool{}
		out := homes[:0]
		for _, h := range homes {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
		v.Homes[oid] = out
	}
	if err := v.ResetCold(); err != nil {
		return nil, err
	}
	return v, nil
}

// ChildCount returns the number of distinct logical subobjects.
func (v *ValueDB) ChildCount() int { return v.childCount }

// ChildRelID returns the pseudo relation id tagging subobject OIDs.
func (v *ValueDB) ChildRelID() uint16 { return v.childRelID }

// GenSequence mirrors DB.GenSequence for the value layout: retrieves
// over parent ranges and updates targeting logical subobjects.
func (v *ValueDB) GenSequence(numRetrieves int, prUpdate float64, numTop int) []Op {
	if prUpdate > MaxUpdateFraction {
		prUpdate = MaxUpdateFraction
	}
	if prUpdate < 0 {
		prUpdate = 0
	}
	numUpdates := 0
	if prUpdate > 0 {
		numUpdates = int(float64(numRetrieves)*prUpdate/(1-prUpdate) + 0.5)
	}
	ops := make([]Op, 0, numRetrieves+numUpdates)
	for i := 0; i < numRetrieves; i++ {
		nt := numTop
		if nt > v.Cfg.NumParents {
			nt = v.Cfg.NumParents
		}
		lo := int64(0)
		if v.Cfg.NumParents > nt {
			lo = v.rng.Int63n(int64(v.Cfg.NumParents - nt + 1))
		}
		ops = append(ops, Op{Kind: OpRetrieve, Lo: lo, Hi: lo + int64(nt) - 1, AttrIdx: FieldRet1 + v.rng.Intn(3)})
	}
	for i := 0; i < numUpdates; i++ {
		op := Op{Kind: OpUpdate}
		for j := 0; j < v.Cfg.UpdateBatch; j++ {
			op.Targets = append(op.Targets, object.NewOID(v.childRelID, v.rng.Int63n(int64(v.childCount))))
			op.NewRet1 = append(op.NewRet1, v.rng.Int63n(1<<30))
		}
		ops = append(ops, op)
	}
	v.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
