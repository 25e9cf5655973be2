package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"corep"
	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/hashfile"
	"corep/internal/heap"
	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/planner"
	"corep/internal/pql"
	"corep/internal/query"
	"corep/internal/reclust"
	"corep/internal/storage"
	"corep/internal/strategy"
	"corep/internal/tuple"
	"corep/internal/txn"
	"corep/internal/wal"
	"corep/internal/workload"
)

// Group B of the per-layer ledger: direct calls into each layer's
// exported functions, timed from here. Probes never touch the measured
// database. Engine layers are probed on a fixture built from the
// workload's own configuration and seed with ClusterRel and the cache
// added (so every strategy and access method exists); the facade on a
// database loaded like the workload's own (like durable_update's for an
// engine workload). Inputs — keys, OIDs, page ids, records — are drawn
// by the seed from the fixture's own generated sequence and relations.
// Nanosecond-scale calls are timed in batches under one span carrying
// the batch size, so the clock is not what is measured.

// Divisors from nanoseconds to a metric's unit.
const (
	ns = 1.0
	us = 1e3
	ms = 1e6
)

// probeSortMem is the sort work memory BFS gives query.SortTemp (eight
// temp pages of 168 values), so the sort probe runs the same plan.
const probeSortMem = 8 * 168

type prober struct {
	tr       *tracer
	rng      *rand.Rand
	out      map[string]float64
	layer    int     // the open probe.<layer> span
	quick    bool    // smoke run: a tenth of the calls
	overhead float64 // ns per call of an empty probe body
	err      error
}

func (p *prober) inLayer(name string, fn func()) {
	if p.err != nil {
		return
	}
	p.layer = p.tr.begin(0, "probe."+name)
	fn()
	p.tr.end(p.layer, 0, nil)
}

// perItem times calls invocations of fn, each covering items items, as
// one span, and records the time per item under metric. A quick run
// makes a tenth of the calls; the number made is returned.
func (p *prober) perItem(metric string, unit float64, calls, items int, fn func(i int) error) int {
	if p.err != nil {
		return 1
	}
	if p.quick && calls >= 10 {
		calls /= 10
	}
	id := p.tr.begin(p.layer, metric)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if err := fn(i); err != nil {
			p.err = fmt.Errorf("%s: %w", metric, err)
			break
		}
	}
	d := float64(time.Since(t0).Nanoseconds()) - p.overhead*float64(calls)
	p.tr.end(id, int64(calls*items), nil)
	if d < 0 {
		d = 0
	}
	p.out[metric] = d / float64(calls*items) / unit
	return calls
}

func (p *prober) perCall(metric string, unit float64, calls int, fn func(i int) error) int {
	return p.perItem(metric, unit, calls, 1, fn)
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

var probeSink int64 // keeps results of pure calls alive

func runProbes(w workloadDef, cfg config, tr *tracer, out map[string]float64) error {
	sz := cfg.sizes()
	p := &prober{tr: tr, rng: rand.New(rand.NewSource(cfg.seed ^ 0x9b0be5)), out: out, quick: cfg.quick}
	p.layer = tr.begin(0, "probe.calibrate")
	p.perCall("driver.empty_probe_ns", ns, 2000000, func(int) error { return nil })
	tr.end(p.layer, 0, nil)
	p.overhead = out["driver.empty_probe_ns"]
	delete(out, "driver.empty_probe_ns")

	spec := engineSpec{cfg: workload.Config{UseFactor: 5, Seed: cfg.seed}, kind: strategy.DFS, numTop: groupSpan}
	fspec := durableUpdate(sz)
	if w.engine != nil {
		spec = w.engine(cfg.seed, sz)
	} else {
		fspec = w.facade(sz)
	}
	spec.cfg.Clustered = true
	if spec.cfg.CacheUnits == 0 {
		spec.cfg.CacheUnits = workload.DefaultCacheUnits
	}
	oids := p.engineLayers(spec)
	p.standaloneLayers(oids)
	p.pqlLayer()
	p.facadeLayer(fspec, cfg)
	return p.err
}

// engineLayers probes everything reachable from a workload.DB and
// returns subobject OIDs for the probes that only need identifiers.
func (p *prober) engineLayers(spec engineSpec) []object.OID {
	db, err := workload.Build(spec.cfg)
	if err != nil {
		p.fail(err)
		return nil
	}
	defer db.Close()
	child := db.Children[0]
	numTop := spec.numTop

	var retrieves, updates []workload.Op
	for _, op := range db.GenSequence(256, 0.2, numTop) {
		if op.Kind == workload.OpRetrieve {
			retrieves = append(retrieves, op)
		} else {
			updates = append(updates, op)
		}
	}
	oids := make([]object.OID, 1024)
	keys := make([]int64, len(oids))
	okeys := make([]int64, len(oids))
	for i := range oids {
		unit := db.Units[p.rng.Intn(len(db.Units))]
		oids[i] = unit[p.rng.Intn(len(unit))]
		keys[i], okeys[i] = oids[i].Key(), int64(oids[i])
	}
	var leaves []disk.PageID
	p.fail(child.Tree.ScanLeavesRID(func(rid storage.RID, _ int64, _ []byte) (bool, error) {
		if len(leaves) == 0 || leaves[len(leaves)-1] != rid.Page {
			leaves = append(leaves, rid.Page)
		}
		return true, nil
	}))
	recs := make([][]byte, 256)
	for i := range recs {
		rec, err := child.Tree.Get(keys[i])
		p.fail(err)
		recs[i] = append([]byte(nil), rec...)
	}
	if p.err != nil {
		return nil
	}

	p.inLayer("tuple", func() {
		schema := db.ChildSchema
		var t tuple.Tuple
		p.perCall("tuple.decode_ns", ns, 20000, func(i int) (err error) {
			t, err = tuple.Decode(schema, recs[i%len(recs)])
			return err
		})
		p.perCall("tuple.decode_field_ns", ns, 50000, func(i int) error {
			v, err := tuple.DecodeField(schema, recs[i%len(recs)], workload.FieldRet2)
			probeSink += v.Int
			return err
		})
		buf := make([]byte, 0, 2*db.Cfg.ChildBytes)
		p.perCall("tuple.encode_ns", ns, 20000, func(int) (err error) {
			buf, err = tuple.Encode(buf[:0], schema, t)
			return err
		})
		const n = 2000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			t, _ = tuple.Decode(schema, recs[i%len(recs)])
		}
		runtime.ReadMemStats(&m1)
		p.out["tuple.decode_allocs"] = float64(m1.Mallocs-m0.Mallocs) / n
	})

	p.inLayer("storage", func() {
		buf, err := db.Pool.Pin(leaves[0])
		if err != nil {
			p.fail(err)
			return
		}
		defer db.Pool.Unpin(leaves[0], false)
		pg := storage.Page{Buf: buf}
		slots := pg.NumSlots()
		p.perCall("storage.record_ns", ns, 200000, func(i int) error {
			_, err := pg.Record(i % slots)
			return err
		})
		live := 0
		pg.LiveRecords(func(int, []byte) bool { live++; return true })
		p.perItem("storage.live_records_ns_per_rec", ns, 5000, live, func(int) error {
			pg.LiveRecords(func(int, []byte) bool { return true })
			return nil
		})
		rec, err := pg.Record(0)
		p.fail(err)
		same := append([]byte(nil), rec...)
		p.perCall("storage.update_ns", ns, 100000, func(int) error { return pg.Update(0, same) })
	})

	p.inLayer("disk", func() {
		img := make([]byte, disk.PageSize)
		p.perCall("disk.read_ns", ns, 50000, func(i int) error { return db.Disk.Read(leaves[i%len(leaves)], img) })
		p.fail(db.Disk.Read(leaves[0], img))
		p.perCall("disk.write_ns", ns, 50000, func(int) error { return db.Disk.Write(leaves[0], img) })
	})

	p.inLayer("buffer", func() {
		pin := func(id disk.PageID) error {
			if _, err := db.Pool.Pin(id); err != nil {
				return err
			}
			db.Pool.Unpin(id, false)
			return nil
		}
		p.fail(db.ResetCold())
		p.fail(pin(leaves[0]))
		p.perCall("buffer.pin_hit_ns", ns, 200000, func(int) error { return pin(leaves[0]) })
		p.fail(db.ResetCold())
		cold := leaves
		if len(cold) > 2000 {
			cold = cold[:2000]
		}
		p.perCall("buffer.pin_miss_ns", ns, len(cold), func(i int) error { return pin(cold[i]) })
		batch := leaves
		if len(batch) > 64 {
			batch = batch[:64]
		}
		p.perItem("buffer.getbatch_ns_per_page", ns, 500, len(batch), func(int) error {
			return db.Pool.GetBatch(batch, func(int, []byte) error { return nil })
		})
	})

	p.inLayer("btree", func() {
		pins := db.Pool.Stats().Pins
		gets := p.perCall("btree.get_ns", ns, 5000, func(i int) error {
			_, err := child.Tree.Get(keys[i%len(keys)])
			return err
		})
		p.out["btree.get_pins"] = float64(db.Pool.Stats().Pins-pins) / float64(gets)
		p.perItem("btree.range_ns_per_key", ns, len(retrieves), numTop, func(i int) error {
			return db.Parent.Tree.Range(retrieves[i].Lo, retrieves[i].Hi, func(int64, []byte) (bool, error) { return true, nil })
		})
		batch := keys[:250]
		p.perItem("btree.getbatch_ns_per_key", ns, 40, len(batch), func(int) error {
			return child.Tree.GetBatch(batch, func(int, []byte) error { return nil })
		})
		p.perCall("btree.update_ns", ns, 2000, func(i int) error {
			return child.Tree.Update(keys[i%len(recs)], recs[i%len(recs)])
		})
	})

	p.inLayer("isam", func() {
		idx := db.ClusterRel.Index
		p.perCall("isam.probe_ns", ns, 5000, func(i int) error {
			_, err := idx.Probe(okeys[i%len(okeys)])
			return err
		})
		batch := okeys[:250]
		p.perItem("isam.probebatch_ns_per_key", ns, 40, len(batch), func(int) error {
			_, err := idx.ProbeBatch(batch)
			return err
		})
	})

	p.inLayer("hashfile", func() {
		hf, err := hashfile.Create(db.Pool, 256)
		if err != nil {
			p.fail(err)
			return
		}
		val := make([]byte, db.Cfg.ChildBytes)
		n := p.perCall("hashfile.put_ns", ns, 2000, func(i int) error { return hf.Put(int64(i), val) })
		p.perCall("hashfile.get_ns", ns, 6000, func(i int) error {
			_, err := hf.Get(int64(i % n))
			return err
		})
	})

	p.inLayer("heap", func() {
		hp, err := heap.Create(db.Pool)
		if err != nil {
			p.fail(err)
			return
		}
		var rec [8]byte
		n := p.perCall("heap.append_ns", ns, 10000, func(int) error {
			_, err := hp.Append(rec[:])
			return err
		})
		p.perItem("heap.scan_ns_per_rec", ns, 5, n, func(int) error {
			return hp.Scan(func(storage.RID, []byte) bool { return true })
		})
	})

	p.inLayer("object", func() {
		raw := object.EncodeOIDs(db.Units[0])
		p.perCall("object.decode_oids_ns", ns, 50000, func(int) error {
			_, err := object.DecodeOIDs(raw)
			return err
		})
		p.perCall("object.hashkey_ns", ns, 50000, func(i int) error {
			probeSink += db.Units[i%len(db.Units)].HashKey()
			return nil
		})
	})

	p.inLayer("query", func() {
		// One BFS temp's worth of OIDs: NumTop parents x SizeUnit.
		tmp, err := query.NewInt64Temp(db.Pool)
		if err != nil {
			p.fail(err)
			return
		}
		n := p.perCall("query.temp_append_ns", ns, numTop*db.Cfg.SizeUnit, func(i int) error { return tmp.Append(keys[i%len(keys)]) })
		var sorted *query.Int64Temp
		p.perItem("query.sort_ns_per_key", ns, 5, n, func(int) (err error) {
			sorted, err = query.SortTemp(db.Pool, tmp, probeSortMem)
			return err
		})
		p.perItem("query.mergejoin_ns_per_key", ns, 5, n, func(int) error {
			it, err := child.Tree.SeekFirst()
			if err != nil {
				return err
			}
			defer it.Close()
			return query.MergeJoin(obs.Ctx{}, sorted.Iter(), it, func(int64, []byte) (bool, error) { return true, nil })
		})
	})

	p.inLayer("strategy", func() {
		// About 6,000 parents' worth of retrieves per strategy.
		n := 6000 / numTop
		if n > len(retrieves) {
			n = len(retrieves)
		}
		for _, k := range strategy.AllKinds {
			st, err := strategy.New(k, db)
			p.fail(err)
			p.fail(db.ResetCold())
			if p.err != nil {
				return
			}
			name := "strategy." + strings.ToLower(k.String())
			made := p.perCall(name+".retrieve_us", us, n, func(i int) error {
				op := retrieves[i]
				_, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
				return err
			})
			p.out[name+".io_per_retrieve"] = float64(db.Disk.Stats().Total()) / float64(made)
		}
		own, err := strategy.New(spec.kind, db)
		p.fail(err)
		p.perCall("strategy.update_us", us, len(updates), func(i int) error { return own.Update(db, updates[i]) })
	})

	p.inLayer("cache", func() {
		c := db.Cache
		p.fail(c.Clear())
		val := make([]byte, db.Cfg.SizeUnit*db.Cfg.ChildBytes)
		full, extra := c.Capacity(), 200
		if len(db.Units) < full+extra {
			p.fail(fmt.Errorf("cache probe needs %d units, fixture has %d", full+extra, len(db.Units)))
			return
		}
		for _, u := range db.Units[:full] {
			p.fail(c.Insert(u, val))
		}
		p.perCall("cache.lookup_hit_ns", ns, 5000, func(i int) error {
			_, ok, err := c.Lookup(db.Units[i%full])
			if err == nil && !ok {
				err = errors.New("cached unit missed")
			}
			return err
		})
		p.perCall("cache.lookup_miss_ns", ns, 50000, func(i int) error {
			_, _, err := c.Lookup(db.Units[full+i%extra])
			return err
		})
		p.perCall("cache.insert_at_capacity_ns", ns, extra, func(i int) error { return c.Insert(db.Units[full+i], val) })
		p.perCall("cache.invalidate_ns", ns, extra, func(i int) error {
			_, err := c.Invalidate(db.Units[full+i][0])
			return err
		})
	})

	p.inLayer("catalog", func() {
		p.perCall("catalog.get_ns", ns, 200000, func(int) error {
			_, err := db.Cat.Get(child.Name)
			return err
		})
	})

	p.inLayer("planner", func() {
		pl := planner.New(planner.Config{Shape: planner.ShapeOf(db), Seed: spec.cfg.Seed})
		p.perCall("planner.choose_ns", ns, 20000, func(int) error {
			probeSink += int64(pl.Choose(numTop).Kind)
			return nil
		})
		p.perCall("planner.observe_ns", ns, 20000, func(i int) error {
			pl.Observe(strategy.DFS, numTop, int64(100+i%7))
			return nil
		})
	})

	// Last: enabling reclustering redirects the clustered read path.
	p.inLayer("reclust", func() {
		heat := reclust.NewTracker(db.Cfg.NumParents, 0)
		p.perCall("reclust.touch_ns", ns, 50000, func(i int) error {
			heat.Touch(int64(i%db.Cfg.NumParents), 1)
			return nil
		})
		placed := make(map[object.OID]reclust.Entry, len(oids))
		for i, oid := range oids {
			placed[oid] = reclust.Entry{RID: storage.RID{Page: leaves[i%len(leaves)]}, Owner: int64(i)}
		}
		pm := reclust.NewMap()
		pm.Publish(placed)
		p.perCall("reclust.map_lookup_ns", ns, 200000, func(i int) error {
			e, _ := pm.Lookup(oids[i%len(oids)], 1)
			probeSink += e.Owner
			return nil
		})
		const units = 50
		p.fail(db.EnableReclustering(0, 0))
		if p.err != nil {
			return
		}
		db.Reclust.Heat.TouchRange(0, 4*units, 1)
		p.perItem("reclust.step_us_per_unit", us, 1, units, func(int) error {
			moved, err := db.ReclustStep(units)
			if err == nil && moved == 0 {
				err = errors.New("nothing migrated")
			}
			return err
		})
	})
	return oids
}

// standaloneLayers probes the layers that need no database: the version
// store, the log on a zero-delay memory device, and span creation.
func (p *prober) standaloneLayers(oids []object.OID) {
	if p.err != nil {
		return
	}
	p.inLayer("txn", func() {
		vs := txn.New(0)
		p.perCall("txn.begin_release_ns", ns, 200000, func(int) error {
			vs.Begin().Release()
			return nil
		})
		// Ten targets per commit like the engine's update batch, rotated
		// so version chains stay short.
		const batch = workload.DefaultUpdateBatch
		p.perCall("txn.commit_ns", ns, 5000, func(i int) error {
			at := (i * batch) % (len(oids) - batch)
			targets := oids[at : at+batch]
			u := vs.BeginUpdate(targets)
			for j, oid := range targets {
				u.Stage(oid, int64(i+j))
			}
			u.Commit(nil)
			return nil
		})
		snap := vs.Begin()
		p.perCall("txn.snapshot_read_ns", ns, 200000, func(i int) error {
			v, _ := snap.Read(oids[i%len(oids)])
			probeSink += v
			return nil
		})
		snap.Release()
	})

	p.inLayer("wal", func() {
		l, err := wal.Open(wal.NewMemDevice(0))
		if err != nil {
			p.fail(err)
			return
		}
		defer l.Close()
		img := make([]byte, disk.PageSize)
		p.perCall("wal.append_page_ns", ns, 2000, func(i int) error {
			_, err := l.AppendPage(disk.PageID(i+1), img)
			return err
		})
		seq := uint64(0)
		p.perCall("wal.append_commit_ns", ns, 20000, func(int) error {
			seq++
			_, err := l.AppendCommit(seq)
			return err
		})
		// Sync of an already-durable LSN returns at once, so time
		// append+sync pairs and take the append back out.
		p.perCall("wal.sync_ns", ns, 20000, func(int) error {
			seq++
			lsn, err := l.AppendCommit(seq)
			if err != nil {
				return err
			}
			return l.Sync(lsn)
		})
		if d := p.out["wal.sync_ns"] - p.out["wal.append_commit_ns"]; d > 0 {
			p.out["wal.sync_ns"] = d
		} else {
			p.out["wal.sync_ns"] = 0
		}
	})

	p.inLayer("obs", func() {
		var off obs.Ctx
		p.perCall("obs.span_disabled_ns", ns, 2000000, func(int) error {
			sp := off.Start("probe")
			sp.End()
			return nil
		})
		on := obs.Ctx{Trace: obs.NewTracer(func() obs.IO { return obs.IO{} }, obs.NewCollector())}
		p.perCall("obs.span_enabled_ns", ns, 20000, func(int) error {
			sp := on.Start("probe")
			sp.End()
			return nil
		})
	})
}

// pqlLayer probes the query language below the facade, on a small
// catalog of its own: person rows and groups whose members are OID
// lists, the shape the facade stores.
func (p *prober) pqlLayer() {
	if p.err != nil {
		return
	}
	const persons, groups, span = 2000, 600, groupSpan
	cat := catalog.New(buffer.New(disk.NewSim(), facadePool))
	person, err := cat.CreateBTree("person", tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt}, tuple.Field{Name: "name", Kind: tuple.KString}, tuple.Field{Name: "age", Kind: tuple.KInt}))
	p.fail(err)
	grp, err := cat.CreateBTree("grp", tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt}, tuple.Field{Name: "name", Kind: tuple.KString}, tuple.Field{Name: "members", Kind: tuple.KBytes}))
	p.fail(err)
	if p.err != nil {
		return
	}
	for k := int64(0); k < persons; k++ {
		rec, err := tuple.Encode(nil, person.Schema, tuple.Tuple{tuple.IntVal(k), tuple.StrVal(personName(k, 0)), tuple.IntVal(k % 90)})
		p.fail(err)
		p.fail(person.Tree.Insert(k, rec))
	}
	for g := int64(0); g < groups; g++ {
		members := make([]object.OID, groupSize)
		for i := range members {
			members[i] = object.NewOID(person.ID, int64(p.rng.Intn(persons)))
		}
		raw := append([]byte{object.TagOIDs}, object.EncodeOIDs(members)...)
		rec, err := tuple.Encode(nil, grp.Schema, tuple.Tuple{tuple.IntVal(g), tuple.StrVal("g"), tuple.BytesVal(raw)})
		p.fail(err)
		p.fail(grp.Tree.Insert(g, rec))
	}
	var scans, paths []*pql.Query
	var pathSrc string
	for i := 0; i < 64; i++ {
		lo := p.rng.Intn(persons - 100)
		q, err := pql.Parse(fmt.Sprintf("retrieve (person.name, person.age) where person.OID >= %d and person.OID <= %d", lo, lo+99))
		p.fail(err)
		scans = append(scans, q)
		lo = p.rng.Intn(groups - span)
		pathSrc = fmt.Sprintf("retrieve (grp.members.name) where grp.OID >= %d and grp.OID <= %d", lo, lo+span-1)
		q, err = pql.Parse(pathSrc)
		p.fail(err)
		paths = append(paths, q)
	}
	p.inLayer("pql", func() {
		p.perCall("pql.parse_ns", ns, 20000, func(int) error {
			_, err := pql.Parse(pathSrc)
			return err
		})
		p.perCall("pql.exec_scan_us", us, 1000, func(i int) error {
			_, err := pql.Execute(cat, scans[i%len(scans)])
			return err
		})
		p.perCall("pql.exec_path_us", us, 1000, func(i int) error {
			_, err := pql.Execute(cat, paths[i%len(paths)])
			return err
		})
		p.perCall("pql.explain_ns", ns, 5000, func(i int) error {
			_, err := pql.Explain(cat, paths[i%len(paths)], pql.ExecOpts{})
			return err
		})
	})
}

// facadeLayer probes the public corep.Database calls.
func (p *prober) facadeLayer(spec facadeSpec, cfg config) {
	if p.err != nil {
		return
	}
	inst, err := setupFacade(spec, cfg.seed, cfg.outDir)
	if err != nil {
		p.fail(err)
		return
	}
	f := inst.(*facadeInst)
	defer f.close()
	grp, err := f.db.Relation("grp")
	if err != nil {
		p.fail(err)
		return
	}
	var updates []facadeOp
	for _, op := range f.ops {
		if op.kind == opUpdate {
			updates = append(updates, op)
		}
	}
	oids := f.model.oids
	queries := make([]string, 64)
	for i := range queries {
		lo := p.rng.Intn(spec.groups - groupSpan)
		queries[i] = fmt.Sprintf("retrieve (grp.members.name) where grp.OID >= %d and grp.OID <= %d", lo, lo+groupSpan-1)
	}
	p.inLayer("corep", func() {
		p.perCall("corep.fetch_ns", ns, 5000, func(i int) error {
			_, err := f.db.Fetch(oids[(i*7919)%len(oids)])
			return err
		})
		batch := make([]corep.OID, 50)
		for i := range batch {
			batch[i] = oids[p.rng.Intn(len(oids))]
		}
		p.perItem("corep.fetchbatch_ns_per_oid", ns, 200, len(batch), func(int) error {
			_, err := f.db.FetchBatch(batch)
			return err
		})
		p.perCall("corep.resolve_us", us, 2000, func(i int) error {
			_, err := grp.Resolve(int64((i*31)%spec.groups), "members")
			return err
		})
		p.perCall("corep.retrievepath_us", us, 500, func(i int) error {
			lo := int64((i * 37) % (spec.groups - groupSpan))
			_, err := f.db.RetrievePath("grp", "members", "name", lo, lo+groupSpan-1)
			return err
		})
		p.perCall("corep.query_us", us, 500, func(i int) error {
			_, err := f.db.Query(queries[i%len(queries)])
			return err
		})
		n := 300
		if n > len(updates) {
			n = len(updates)
		}
		p.perCall("corep.update_us", us, n, func(i int) error { return f.person.Update(updates[i].key, updates[i].row) })
		if spec.durable {
			// One checkpoint: it flushes what the updates above dirtied.
			p.perCall("corep.checkpoint_ms", ms, 1, func(int) error { return f.db.Checkpoint() })
		}
	})
}
