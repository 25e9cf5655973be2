package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/strategy"
	"corep/internal/tuple"
	"corep/internal/workload"
)

// engineSpec is what distinguishes the four workloads that drive
// workload.DB through one of the paper's strategies.
type engineSpec struct {
	cfg       workload.Config
	kind      strategy.Kind
	retrieves int
	prUpdate  float64
	numTop    int
	clients   int
	versioned bool // EnableVersioning, snapshot per retrieve, drain per round
}

func wideScan(seed int64, sz sizes) engineSpec {
	return engineSpec{
		cfg:       workload.Config{UseFactor: 5, Seed: seed},
		kind:      strategy.BFS,
		retrieves: sz.n(1000),
		numTop:    200,
		clients:   1,
	}
}

func cachedPoint(seed int64, sz sizes) engineSpec {
	return engineSpec{
		cfg:       workload.Config{UseFactor: 5, CacheUnits: workload.DefaultCacheUnits, Seed: seed},
		kind:      strategy.DFSCACHE,
		retrieves: sz.n(6000),
		prUpdate:  0.1,
		numTop:    10,
		clients:   1,
	}
}

func clusteredWarm(seed int64, sz sizes) engineSpec {
	return engineSpec{
		cfg:       workload.Config{UseFactor: 1, Clustered: true, PoolPages: 8000, Seed: seed},
		kind:      strategy.DFSCLUST,
		retrieves: sz.n(30000),
		numTop:    50,
		clients:   1,
	}
}

func serve2C(seed int64, sz sizes) engineSpec {
	return engineSpec{
		cfg:       workload.Config{UseFactor: 5, ZipfTheta: 0.9, PoolShards: 2, ProbeBatch: true, Seed: seed},
		kind:      strategy.DFS,
		retrieves: sz.n(14000),
		prUpdate:  0.3,
		numTop:    50,
		clients:   2,
		versioned: true,
	}
}

// engineInst is a built engine workload.
type engineInst struct {
	spec engineSpec
	db   *workload.DB
	st   strategy.Strategy
	ops  []workload.Op
	ks   []opKind

	model *engineModel
	res   []*strategy.Result // last retrieve result per client

	// Strategy cost split summed over retrieves; atomics because the
	// traced run reads them from both clients.
	parIO, childIO, values atomic.Int64

	buildS  float64
	genMs   float64
	drainNs int64
	fails   int
}

func setupEngine(spec engineSpec) (instance, error) {
	t0 := time.Now()
	db, err := workload.Build(spec.cfg)
	if err != nil {
		return nil, err
	}
	if len(db.Children) != 1 {
		return nil, fmt.Errorf("benchmark: control assumes one child relation, have %d", len(db.Children))
	}
	if spec.versioned {
		db.EnableVersioning()
	}
	st, err := strategy.New(spec.kind, db)
	if err != nil {
		return nil, err
	}
	e := &engineInst{spec: spec, db: db, st: st, res: make([]*strategy.Result, spec.clients)}
	e.buildS = time.Since(t0).Seconds()

	t1 := time.Now()
	e.ops = db.GenSequence(spec.retrieves, spec.prUpdate, spec.numTop)
	e.genMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	e.ks = make([]opKind, len(e.ops))
	for i, op := range e.ops {
		if op.Kind == workload.OpUpdate {
			e.ks[i] = opUpdate
		}
	}
	return e, nil
}

func (e *engineInst) kinds() []opKind { return e.ks }
func (e *engineInst) clients() int    { return e.spec.clients }

func (e *engineInst) adopt(twin instance) error {
	t, ok := twin.(*engineInst)
	if !ok {
		return fmt.Errorf("benchmark: twin of an engine workload is %T", twin)
	}
	m, err := newEngineModel(t.db)
	if err != nil {
		return err
	}
	if e.spec.clients > 1 {
		m.indexWrites(e.ops, e.spec.clients)
	}
	e.model = m
	return nil
}

func (e *engineInst) beginRound() error { return e.db.ResetCold() }

func (e *engineInst) endRound() error {
	if !e.spec.versioned {
		return nil
	}
	t0 := time.Now()
	_, err := e.db.DrainVersions(func(op workload.Op) error { return e.st.Update(e.db, op) })
	e.drainNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	bad, err := e.model.checkDrained(e.db)
	e.fails += bad
	return err
}

func (e *engineInst) exec(client, i int) error {
	op := &e.ops[i]
	if op.Kind == workload.OpUpdate {
		return e.st.Update(e.db, *op)
	}
	q := strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}
	if e.spec.versioned {
		q.Snap = e.db.Versions.Begin()
	}
	res, err := e.st.Retrieve(e.db, q)
	q.Snap.Release()
	e.res[client] = res
	return err
}

func (e *engineInst) check(client, i int) bool {
	op := &e.ops[i]
	if op.Kind == workload.OpUpdate {
		if e.spec.clients == 1 {
			e.model.apply(op)
		} else {
			e.model.noteWrites(client, op)
		}
		return true
	}
	res := e.res[client]
	if res == nil {
		return false
	}
	e.parIO.Add(res.Split.Par)
	e.childIO.Add(res.Split.Child)
	e.values.Add(int64(len(res.Values)))
	if e.spec.clients == 1 {
		return sumOf(res.Values) == e.model.expect(op)
	}
	return e.model.admissible(op, res.Values)
}

func (e *engineInst) stateFailures() int { return e.fails }

func (e *engineInst) counters() counters {
	var c counters
	ds := e.db.Disk.Stats()
	c[cDiskReads], c[cDiskWrites] = ds.Reads, ds.Writes
	ps := e.db.Pool.Stats()
	c[cPins], c[cHits], c[cMisses], c[cFlushes], c[cRetries] = ps.Pins, ps.Hits, ps.Misses, ps.Flushes, ps.Retries
	if e.db.Cache != nil {
		cs := e.db.Cache.Stats()
		c[cCacheHits], c[cCacheMisses], c[cCacheInserts] = cs.Hits, cs.Misses, cs.Inserts
		c[cCacheEvictions], c[cCacheInvalidations], c[cCacheStale] = cs.Evictions, cs.Invalidations, cs.StaleRejects
	}
	if e.db.Versions != nil {
		ts := e.db.Versions.Stats()
		c[cTxnCommits], c[cTxnLatchWaits], c[cTxnOverlayHits], c[cTxnSnapshots] = ts.Commits, ts.Waited, ts.Hits, ts.Snapshots
	}
	c[cParIO], c[cChildIO], c[cValues] = e.parIO.Load(), e.childIO.Load(), e.values.Load()
	return c
}

func (e *engineInst) space() (int64, int64, error) {
	cfg := e.db.Cfg
	user := int64(cfg.NumParents)*int64(cfg.ParentBytes) +
		int64(e.db.ChildCount(e.db.Children[0].ID))*int64(cfg.ChildBytes)
	return int64(e.db.Disk.NumPages()) * disk.PageSize, user, nil
}

func (e *engineInst) finish(extra map[string]float64) error {
	extra["workload.build_s"] = e.buildS
	extra["workload.gensequence_ms"] = e.genMs
	extra["txn.drain_ms"] = float64(e.drainNs) / 1e6
	return nil
}

func (e *engineInst) close() { e.db.Close() }

// checksum is an order-independent digest of one retrieve's values.
type checksum struct {
	n        int
	sum, xor int64
}

func sumOf(vals []int64) (c checksum) {
	c.n = len(vals)
	for _, v := range vals {
		c.sum += v
		c.xor ^= v
	}
	return c
}

// engineModel is the control of the engine workloads: the generator's
// own bookkeeping (which unit each parent references) plus every
// subobject's ret1..ret3, read once from a twin database built from the
// same seed. A retrieve is answered by a nested loop over it; no page,
// index or strategy code is involved.
type engineModel struct {
	units      []object.Unit
	parentUnit []int
	vals       [][3]int64 // child key -> ret1, ret2, ret3

	// Two-client control: every ret1 value the sequence writes per child
	// key, and each client's latest committed write to it (a map per
	// client, written only by that client).
	written map[int64]map[int64]struct{}
	last    []map[int64]int64
}

func newEngineModel(twin *workload.DB) (*engineModel, error) {
	rel := twin.Children[0]
	n := twin.ChildCount(rel.ID)
	m := &engineModel{units: twin.Units, parentUnit: twin.ParentUnit, vals: make([][3]int64, n)}
	seen := 0
	err := rel.Tree.Range(0, int64(n)-1, func(key int64, payload []byte) (bool, error) {
		for f := 0; f < 3; f++ {
			v, err := tuple.DecodeField(twin.ChildSchema, payload, workload.FieldRet1+f)
			if err != nil {
				return false, err
			}
			m.vals[key][f] = v.Int
		}
		seen++
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if seen != n {
		return nil, fmt.Errorf("benchmark: twin holds %d subobjects, generator reports %d", seen, n)
	}
	return m, nil
}

func (m *engineModel) apply(op *workload.Op) {
	for j, oid := range op.Targets {
		m.vals[oid.Key()][0] = op.NewRet1[j]
	}
}

func (m *engineModel) expect(op *workload.Op) (c checksum) {
	f := op.AttrIdx - workload.FieldRet1
	for p := op.Lo; p <= op.Hi; p++ {
		for _, oid := range m.units[m.parentUnit[p]] {
			v := m.vals[oid.Key()][f]
			c.n++
			c.sum += v
			c.xor ^= v
		}
	}
	return c
}

// indexWrites records, for the two-client workload, what each child may
// legally read as: with commits from two clients interleaving, a
// snapshot sees the initial ret1 or any value some update wrote.
func (m *engineModel) indexWrites(ops []workload.Op, clients int) {
	m.written = make(map[int64]map[int64]struct{})
	m.last = make([]map[int64]int64, clients)
	for c := range m.last {
		m.last[c] = make(map[int64]int64)
	}
	for i := range ops {
		op := &ops[i]
		for j, oid := range op.Targets {
			k := oid.Key()
			set := m.written[k]
			if set == nil {
				set = make(map[int64]struct{})
				m.written[k] = set
			}
			set[op.NewRet1[j]] = struct{}{}
		}
	}
}

// admissible is the two-client retrieve check: exact cardinality and
// order, ret2/ret3 exactly the initial value, ret1 the initial value or
// one written to that subobject.
func (m *engineModel) admissible(op *workload.Op, vals []int64) bool {
	f := op.AttrIdx - workload.FieldRet1
	k := 0
	for p := op.Lo; p <= op.Hi; p++ {
		for _, oid := range m.units[m.parentUnit[p]] {
			if k >= len(vals) {
				return false
			}
			v, key := vals[k], oid.Key()
			k++
			if v == m.vals[key][f] {
				continue
			}
			if f != 0 {
				return false
			}
			if _, ok := m.written[key][v]; !ok {
				return false
			}
		}
	}
	return k == len(vals)
}

// checkDrained compares the base relation after a drain with the
// control: an unwritten subobject is untouched, a written one holds the
// latest write of one of the clients (which one depends on commit order).
func (m *engineModel) checkDrained(db *workload.DB) (bad int, err error) {
	rel := db.Children[0]
	err = rel.Tree.Range(0, int64(len(m.vals))-1, func(key int64, payload []byte) (bool, error) {
		for f := 0; f < 3; f++ {
			v, err := tuple.DecodeField(db.ChildSchema, payload, workload.FieldRet1+f)
			if err != nil {
				return false, err
			}
			if !m.drainedOK(key, f, v.Int) {
				bad++
			}
		}
		return true, nil
	})
	return bad, err
}

func (m *engineModel) drainedOK(key int64, f int, v int64) bool {
	wrote := false
	if f == 0 {
		for _, last := range m.last {
			if w, ok := last[key]; ok {
				if w == v {
					return true
				}
				wrote = true
			}
		}
	}
	return !wrote && v == m.vals[key][f]
}

// noteWrites records an update one client has committed.
func (m *engineModel) noteWrites(client int, op *workload.Op) {
	for j, oid := range op.Targets {
		m.last[client][oid.Key()] = op.NewRet1[j]
	}
}
