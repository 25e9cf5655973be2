package workload

import (
	"math"
	"math/rand"
	"sort"

	"corep/internal/object"
	"corep/internal/tuple"
	"corep/internal/txn"
)

// OpKind distinguishes retrieves from updates in a query sequence.
type OpKind uint8

// Operation kinds.
const (
	OpRetrieve OpKind = iota
	OpUpdate
)

// Op is one query of a sequence. Retrieves are
//
//	retrieve (ParentRel.children.attr) where val1 ≤ ParentRel.OID ≤ val2
//
// with attr "randomly chosen (for each query separately) from retl,
// ret2, ret3" (§4). Updates modify a fixed batch of ChildRel tuples in
// place; the new values travel with the op so that every strategy (and
// every layout) applies identical changes.
type Op struct {
	Kind OpKind

	// Retrieve fields.
	Lo, Hi  int64 // parent key range, inclusive
	AttrIdx int   // FieldRet1..FieldRet3

	// Update fields.
	Targets []object.OID // ChildRel tuples to modify
	NewRet1 []int64      // new ret1 value per target
}

// MaxUpdateFraction caps Pr(UPDATE): a sequence must retain retrieves to
// compare retrieval strategies, so "Pr(UPDATE) → 1" is modelled as 0.95
// (documented in DESIGN.md).
const MaxUpdateFraction = 0.95

// GenSequence produces a sequence with numRetrieves retrieve queries at
// the given NumTop, mixed with updates so that the update fraction of
// the sequence is prUpdate. The mix is shuffled deterministically from
// the DB's seed stream.
func (db *DB) GenSequence(numRetrieves int, prUpdate float64, numTop int) []Op {
	return db.GenMixedSequence(numRetrieves, prUpdate, []int{numTop})
}

// GenMixedSequence is GenSequence with NumTop drawn per query from the
// given set — the "good query mix" SMART needs (§5.3).
func (db *DB) GenMixedSequence(numRetrieves int, prUpdate float64, numTops []int) []Op {
	if prUpdate > MaxUpdateFraction {
		prUpdate = MaxUpdateFraction
	}
	if prUpdate < 0 {
		prUpdate = 0
	}
	numUpdates := 0
	if prUpdate > 0 {
		numUpdates = int(math.Round(prUpdate / (1 - prUpdate) * float64(numRetrieves)))
	}
	ops := make([]Op, 0, numRetrieves+numUpdates)
	for i := 0; i < numRetrieves; i++ {
		numTop := numTops[db.rng.Intn(len(numTops))]
		if numTop > db.Cfg.NumParents {
			numTop = db.Cfg.NumParents
		}
		lo := int64(0)
		if db.Cfg.NumParents > numTop {
			// θ = 0 must take the exact historic Int63n call so existing
			// sequences (and every figure cell) are bit-identical.
			if db.Cfg.ZipfTheta > 0 {
				lo = db.zipfDraw(db.Cfg.NumParents - numTop + 1)
			} else {
				lo = db.rng.Int63n(int64(db.Cfg.NumParents - numTop + 1))
			}
		}
		ops = append(ops, Op{
			Kind:    OpRetrieve,
			Lo:      lo,
			Hi:      lo + int64(numTop) - 1,
			AttrIdx: FieldRet1 + db.rng.Intn(3),
		})
	}
	for i := 0; i < numUpdates; i++ {
		ops = append(ops, db.genUpdate())
	}
	db.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// genUpdate picks UpdateBatch random ChildRel tuples and new ret1
// values. With ZipfTheta > 0, each target is a member of a zipf-hot
// parent's unit instead of a uniform child — updates then collide with
// the skewed retrieve ranges on the same subobjects, which is the
// contention the -txn sweep measures.
func (db *DB) genUpdate() Op {
	op := Op{Kind: OpUpdate}
	for i := 0; i < db.Cfg.UpdateBatch; i++ {
		if db.Cfg.ZipfTheta > 0 {
			unit := db.UnitOf(db.zipfDraw(db.Cfg.NumParents))
			op.Targets = append(op.Targets, unit[db.rng.Intn(len(unit))])
			op.NewRet1 = append(op.NewRet1, db.rng.Int63n(1<<30))
			continue
		}
		rel := db.Children[db.rng.Intn(len(db.Children))]
		n := db.childCount[rel.ID]
		if n == 0 {
			continue
		}
		op.Targets = append(op.Targets, object.NewOID(rel.ID, db.rng.Int63n(int64(n))))
		op.NewRet1 = append(op.NewRet1, db.rng.Int63n(1<<30))
	}
	return op
}

// zipfTable is a bounded generalized-zipf sampler: cum[i] holds the
// prefix sum of 1/(i+1)^θ, so a uniform draw binary-searched into cum
// selects value i with probability proportional to 1/(i+1)^θ.
// (math/rand.Zipf requires s > 1; the contention literature sweeps
// θ ∈ [0, 1], so we build our own table.)
type zipfTable struct {
	cum []float64
}

func newZipfTable(n int, theta float64) *zipfTable {
	cum := make([]float64, n)
	s := 0.0
	for i := 0; i < n; i++ {
		s += 1 / math.Pow(float64(i+1), theta)
		cum[i] = s
	}
	return &zipfTable{cum: cum}
}

func (z *zipfTable) draw(rng *rand.Rand) int64 {
	r := rng.Float64() * z.cum[len(z.cum)-1]
	return int64(sort.SearchFloat64s(z.cum, r))
}

// zipfDraw samples from [0, n) with the config's skew, caching one
// table per distinct range (sequence generation is single-threaded on
// the DB's rng, so the cache needs no lock).
func (db *DB) zipfDraw(n int) int64 {
	if db.zipf == nil {
		db.zipf = make(map[int]*zipfTable)
	}
	t, ok := db.zipf[n]
	if !ok {
		t = newZipfTable(n, db.Cfg.ZipfTheta)
		db.zipf[n] = t
	}
	return t.draw(db.rng)
}

// clusterRet1 is ret1's position in ClusterSchema (cluster# occupies
// field 0, shifting the ChildSchema fields by one).
const clusterRet1 = FieldRet1 + 1

// PatchRet1 re-encodes rec (a tuple of schema s) with the integer field
// at idx replaced by v — the one modification updates make.
func PatchRet1(s *tuple.Schema, rec []byte, idx int, v int64) ([]byte, error) {
	t, err := tuple.Decode(s, rec)
	if err != nil {
		return nil, err
	}
	t[idx] = tuple.IntVal(v)
	return tuple.Encode(nil, s, t)
}

// ApplyUpdateBase applies an update op to the base layout (ChildRel
// B-trees): probe by key, modify ret1 in place. This is the update path
// of the non-clustered strategies; the caller is charged the I/O.
func (db *DB) ApplyUpdateBase(op Op) error {
	for i, oid := range op.Targets {
		rel, err := db.ChildByRelID(oid.Rel())
		if err != nil {
			return err
		}
		rec, err := rel.Tree.Get(oid.Key())
		if err != nil {
			return err
		}
		nrec, err := PatchRet1(db.ChildSchema, rec, FieldRet1, op.NewRet1[i])
		if err != nil {
			return err
		}
		if err := rel.Tree.Update(oid.Key(), nrec); err != nil {
			return err
		}
	}
	return nil
}

// ApplyUpdate applies an update op on whichever write path is active.
// Unversioned, inPlace (the caller's layout writer: ApplyUpdateBase or
// ApplyUpdateCluster) rewrites base pages and the result is nil. Under
// versioned serving the targets are validated and staged in a txn
// update whose per-stripe write latches are held from here until the
// caller hands it to Publish, which makes them visible as one epoch. No
// base page is written, so concurrent snapshot readers never race a
// B-tree mutation; DrainVersions folds the values back once serving
// quiesces.
func (db *DB) ApplyUpdate(op Op, inPlace func(Op) error) (*txn.Update, error) {
	if !db.Versioned() {
		return nil, inPlace(op)
	}
	u := db.Versions.BeginUpdate(op.Targets)
	for i, oid := range op.Targets {
		if _, err := db.ChildByRelID(oid.Rel()); err != nil {
			u.Abort()
			return nil, err
		}
		u.Stage(oid, op.NewRet1[i])
	}
	return u, nil
}

// DrainVersions folds every pending version back into the base layout:
// the newest value per object, ascending OID order, each replayed as a
// one-target update op through apply (normally the strategy's own
// Update, so each layout reuses its exact in-place semantics). The
// store is detached for the duration so apply's updates write through
// to base pages rather than re-versioning. Callers must have quiesced
// concurrent use first.
func (db *DB) DrainVersions(apply func(Op) error) (int, error) {
	if !db.Versioned() {
		return 0, nil
	}
	vs := db.Versions
	db.Versions = nil
	defer func() { db.Versions = vs }()
	return vs.Drain(func(oid object.OID, val int64) error {
		return apply(Op{Kind: OpUpdate, Targets: []object.OID{oid}, NewRet1: []int64{val}})
	})
}

// ApplyUpdateCluster applies an update op to the clustered layout:
// random access via the ISAM OID index, then an in-place page update
// ("the updates ... are translated into equivalent queries on
// ClusterRel", §4). With reclustering enabled the update also writes
// through to the target's migrated extent copy, keeping both physical
// locations carrying the same value regardless of which one a reader's
// placement lookup resolves.
func (db *DB) ApplyUpdateCluster(op Op) error {
	idx := db.ClusterRel.Index
	for i, oid := range op.Targets {
		rid, err := idx.Probe(int64(oid))
		if err != nil {
			return err
		}
		_, payload, err := db.ClusterRel.Tree.GetAt(rid)
		if err != nil {
			return err
		}
		nrec, err := PatchRet1(db.ClusterSchema, payload, clusterRet1, op.NewRet1[i])
		if err != nil {
			return err
		}
		if err := db.ClusterRel.Tree.UpdateAt(rid, nrec); err != nil {
			return err
		}
		err = db.WriteThrough(oid, func(rec []byte) ([]byte, error) {
			return PatchRet1(db.ClusterSchema, rec, clusterRet1, op.NewRet1[i])
		})
		if err != nil {
			return err
		}
	}
	return nil
}
