package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"corep"
)

const (
	facadePool   = 100 // buffer pages, the paper's pool
	groupSize    = 5   // members per group
	groupSpan    = 20  // groups per retrieve
	padBytes     = 64
	recoverTable = "person"
)

// facadeSpec distinguishes the two workloads that go through the public
// corep.Database facade.
type facadeSpec struct {
	persons, groups int
	ops             int     // per round, checkpoints not included
	pathShare       float64 // RetrievePath
	queryShare      float64 // the same path as a pql Query; the rest are updates
	durable         bool    // file-backed, WAL on, checkpoints in the sequence
	checkpointEvery int     // commits between checkpoints (durable)
}

func objectAPI(sz sizes) facadeSpec {
	return facadeSpec{
		persons: 20000, groups: 6000,
		ops: sz.n(25000), pathShare: 0.4, queryShare: 0.4,
	}
}

func durableUpdate(sz sizes) facadeSpec {
	return facadeSpec{
		persons: 5000, groups: 1500,
		ops: sz.n(10000), pathShare: 0.2,
		durable: true, checkpointEvery: sz.n(2000),
	}
}

type facadeOp struct {
	kind    opKind
	asQuery bool      // retrieve through Query instead of RetrievePath
	lo      int64     // first group of a retrieve
	src     string    // query text
	key     int64     // person updated
	row     corep.Row // its new row
}

// facadeModel is the control of the facade workloads: plain Go slices
// holding what every person is named now and who belongs to each group.
type facadeModel struct {
	names   []string
	ages    []int64
	members [][]int64  // group -> person keys, in result order
	inline  [][]string // value-based groups: names as of insertion (replicated, never updated)
	user    int64      // bytes of user tuple data loaded
	oids    []corep.OID
}

func (m *facadeModel) memberName(g int64, k int) string {
	if in := m.inline[g]; in != nil {
		return in[k]
	}
	return m.names[m.members[g][k]]
}

type facadeInst struct {
	spec   facadeSpec
	seed   int64
	outDir string
	dir    string // durable: the database's own temporary directory
	path   string
	db     *corep.Database
	person *corep.Relation
	model  *facadeModel
	ops    []facadeOp
	ks     []opKind

	vals []corep.Value      // last RetrievePath result
	rows *corep.QueryResult // last Query result

	walSampled   int64 // log bytes seen just before each truncation
	sinceCkpt    int   // commits acknowledged since the last checkpoint
	fails        int
	loadS, genMs float64
}

func personName(key int64, version int) string { return fmt.Sprintf("p%06d.%04d", key, version) }

// loadFacade creates and fills person and grp from the seed and returns
// the control describing what was loaded. Group g's members are an OID
// list, a stored query or inline values according to g mod 3.
func loadFacade(db *corep.Database, spec facadeSpec, seed int64) (*corep.Relation, *facadeModel, error) {
	rng := rand.New(rand.NewSource(seed))
	person, err := db.CreateRelation("person",
		corep.IntField("OID"), corep.StrField("name"), corep.IntField("age"), corep.StrField("pad"))
	if err != nil {
		return nil, nil, err
	}
	grp, err := db.CreateRelation("grp",
		corep.IntField("OID"), corep.StrField("name"), corep.ChildrenField("members"))
	if err != nil {
		return nil, nil, err
	}
	m := &facadeModel{
		names:   make([]string, spec.persons),
		ages:    make([]int64, spec.persons),
		members: make([][]int64, spec.groups),
		inline:  make([][]string, spec.groups),
	}
	pad := strings.Repeat("x", padBytes)
	oids := make([]corep.OID, spec.persons)
	for k := range oids {
		m.names[k], m.ages[k] = personName(int64(k), 0), int64(rng.Intn(90))
		row := corep.Row{corep.Int(int64(k)), corep.Str(m.names[k]), corep.Int(m.ages[k]), corep.Str(pad)}
		if oids[k], err = person.Insert(row); err != nil {
			return nil, nil, err
		}
		m.user += 8 + int64(len(m.names[k])) + 8 + padBytes
	}
	m.oids = oids
	for g := 0; g < spec.groups; g++ {
		keys := make([]int64, groupSize)
		var c corep.Children
		switch g % 3 {
		case 0:
			mem := make([]corep.OID, groupSize)
			for k := range mem {
				keys[k] = int64(rng.Intn(spec.persons))
				mem[k] = oids[keys[k]]
			}
			c = corep.OIDChildren(mem...)
			m.user += 8 * groupSize
		case 1:
			lo := int64(rng.Intn(spec.persons - groupSize))
			for k := range keys {
				keys[k] = lo + int64(k)
			}
			src := fmt.Sprintf("retrieve (person.name) where person.OID >= %d and person.OID <= %d", lo, lo+groupSize-1)
			c = corep.ProcChildren(src)
			m.user += int64(len(src))
		case 2:
			rows := make([]corep.Row, groupSize)
			m.inline[g] = make([]string, groupSize)
			for k := range rows {
				keys[k] = int64(rng.Intn(spec.persons))
				m.inline[g][k] = m.names[keys[k]]
				rows[k] = corep.Row{corep.Int(keys[k]), corep.Str(m.names[keys[k]]), corep.Int(m.ages[keys[k]]), corep.Str(pad)}
				m.user += 8 + int64(len(m.names[keys[k]])) + 8 + padBytes
			}
			c = corep.ValueChildren(person, rows...)
		}
		m.members[g] = keys
		name := fmt.Sprintf("g%05d", g)
		row := corep.Row{corep.Int(int64(g)), corep.Str(name), corep.Value{}}
		if _, err := grp.InsertWith(row, map[string]corep.Children{"members": c}); err != nil {
			return nil, nil, err
		}
		m.user += 8 + int64(len(name))
	}
	return person, m, nil
}

func setupFacade(spec facadeSpec, seed int64, outDir string) (instance, error) {
	f := &facadeInst{spec: spec, seed: seed, outDir: outDir}
	t0 := time.Now()
	if spec.durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "durable-")
		if err != nil {
			return nil, err
		}
		f.dir, f.path = dir, filepath.Join(dir, "db")
		if f.db, err = corep.OpenDatabaseFile(f.path, facadePool); err != nil {
			return nil, err
		}
	} else {
		f.db = corep.NewDatabase(facadePool)
	}
	var err error
	if f.person, f.model, err = loadFacade(f.db, spec, seed); err != nil {
		return nil, err
	}
	if spec.durable {
		if err := f.db.Checkpoint(); err != nil {
			return nil, err
		}
		if err := f.db.EnableWAL(); err != nil {
			return nil, err
		}
	}
	f.loadS = time.Since(t0).Seconds()

	t1 := time.Now()
	f.genOps(rand.New(rand.NewSource(seed ^ 0x5eed0b5)))
	f.genMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	return f, nil
}

// genOps draws the fixed op sequence: the mix is exact, the order
// shuffled, and on the durable workload a checkpoint follows every
// checkpointEvery-th commit except the last, so a round always ends with
// commits that only the log holds.
func (f *facadeInst) genOps(rng *rand.Rand) {
	spec := f.spec
	nPath := int(float64(spec.ops)*spec.pathShare + 0.5)
	nQuery := int(float64(spec.ops)*spec.queryShare + 0.5)
	nUpdate := spec.ops - nPath - nQuery
	ops := make([]facadeOp, 0, spec.ops)
	for i := 0; i < nPath+nQuery; i++ {
		lo := int64(rng.Intn(spec.groups - groupSpan + 1))
		op := facadeOp{kind: opRetrieve, lo: lo, asQuery: i >= nPath}
		if op.asQuery {
			op.src = fmt.Sprintf("retrieve (grp.members.name) where grp.OID >= %d and grp.OID <= %d", lo, lo+groupSpan-1)
		}
		ops = append(ops, op)
	}
	pad := strings.Repeat("x", padBytes)
	for i := 0; i < nUpdate; i++ {
		key := int64(rng.Intn(spec.persons))
		age := int64(rng.Intn(90))
		row := corep.Row{corep.Int(key), corep.Str(personName(key, 1+i%9999)), corep.Int(age), corep.Str(pad)}
		ops = append(ops, facadeOp{kind: opUpdate, key: key, row: row})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if spec.durable {
		withCkpt := make([]facadeOp, 0, len(ops)+nUpdate/spec.checkpointEvery)
		commits := 0
		for _, op := range ops {
			withCkpt = append(withCkpt, op)
			if op.kind != opUpdate {
				continue
			}
			commits++
			if commits%spec.checkpointEvery == 0 && commits < nUpdate {
				withCkpt = append(withCkpt, facadeOp{kind: opCheckpoint})
			}
		}
		ops = withCkpt
	}
	f.ops = ops
	f.ks = make([]opKind, len(ops))
	for i := range ops {
		f.ks[i] = ops[i].kind
	}
}

func (f *facadeInst) kinds() []opKind { return f.ks }
func (f *facadeInst) clients() int    { return 1 }

// adopt is a no-op: the control is the driver's own record of the rows
// it generated, not a reading of any database.
func (f *facadeInst) adopt(instance) error { return nil }

func (f *facadeInst) beginRound() error {
	if f.spec.durable {
		// Start every round from an empty log, so rounds log the same.
		f.sinceCkpt = 0
		return f.db.Checkpoint()
	}
	return f.db.ResetCold()
}

func (f *facadeInst) endRound() error { return nil }

func (f *facadeInst) walSize() int64 {
	fi, err := os.Stat(f.path + ".wal")
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (f *facadeInst) exec(_, i int) (err error) {
	op := &f.ops[i]
	switch op.kind {
	case opUpdate:
		return f.person.Update(op.key, op.row)
	case opCheckpoint:
		f.walSampled += f.walSize()
		return f.db.Checkpoint()
	}
	if op.asQuery {
		f.rows, err = f.db.Query(op.src)
		return err
	}
	f.vals, err = f.db.RetrievePath("grp", "members", "name", op.lo, op.lo+groupSpan-1)
	return err
}

func (f *facadeInst) check(_, i int) bool {
	op := &f.ops[i]
	switch op.kind {
	case opUpdate:
		f.model.names[op.key], f.model.ages[op.key] = op.row[1].Str, op.row[2].Int
		f.sinceCkpt++
		return true
	case opCheckpoint:
		f.sinceCkpt = 0
		return true
	}
	// Both retrieve forms return one name per (group, member), in order.
	const n = groupSpan * groupSize
	if op.asQuery {
		if f.rows == nil || len(f.rows.Rows) != n {
			return false
		}
	} else if len(f.vals) != n {
		return false
	}
	for i := 0; i < n; i++ {
		got := ""
		if !op.asQuery {
			got = f.vals[i].Str
		} else if row := f.rows.Rows[i]; len(row) == 1 {
			got = row[0].Str
		}
		if got != f.model.memberName(op.lo+int64(i/groupSize), i%groupSize) {
			return false
		}
	}
	return true
}

func (f *facadeInst) stateFailures() int { return f.fails }

func (f *facadeInst) counters() counters {
	var c counters
	s := f.db.Snapshot()
	c[cDiskReads], c[cDiskWrites] = s.Disk.Reads, s.Disk.Writes
	c[cPins], c[cHits], c[cMisses] = s.Buffer.Pins, s.Buffer.Hits, s.Buffer.Misses
	c[cFlushes], c[cRetries] = s.Buffer.Flushes, s.Buffer.Retries
	if w := s.WAL; w != nil {
		c[cWALPageImages], c[cWALFsyncs], c[cWALCommits] = w.PageImages, w.Fsyncs, w.Commits
		c[cWALBytes] = f.walSampled + f.walSize()
	}
	return c
}

// space of the durable workload is its page file plus the log. The
// in-memory facade does not say how many pages it holds, so its space is
// that of a file-backed twin loaded with the same rows.
func (f *facadeInst) space() (int64, int64, error) {
	if f.spec.durable {
		fi, err := os.Stat(f.path)
		if err != nil {
			return 0, 0, err
		}
		return fi.Size() + f.walSize(), f.model.user, nil
	}
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(f.outDir, "space-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "db")
	twin, err := corep.OpenDatabaseFile(path, facadePool)
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := loadFacade(twin, f.spec, f.seed); err != nil {
		twin.Close()
		return 0, 0, err
	}
	if err := twin.Close(); err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return fi.Size(), f.model.user, nil
}

// finish is the durability check of the durable workload: the handle is
// abandoned without Close or Checkpoint, the file reopened, and every
// acknowledged update must be readable with recovery reporting exactly
// the commits made since the last checkpoint. The process did not die,
// so the OS cache is intact: this checks the redo path, not torn writes.
func (f *facadeInst) finish(extra map[string]float64) error {
	extra["workload.build_s"] = f.loadS
	extra["workload.gensequence_ms"] = f.genMs
	if !f.spec.durable {
		return nil
	}
	f.db = nil
	t0 := time.Now()
	re, err := corep.OpenDatabaseFile(f.path, facadePool)
	if err != nil {
		return fmt.Errorf("reopen after abandon: %w", err)
	}
	extra["wal.recover_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	f.db = re
	replayed := 0
	if rr := re.RecoveryResult(); rr != nil {
		replayed = len(rr.Commits)
	}
	extra["wal.replayed_commits"] = float64(replayed)
	if replayed != f.sinceCkpt {
		f.fails++
	}
	person, err := re.Relation(recoverTable)
	if err != nil {
		return err
	}
	for k := range f.model.names {
		row, err := person.Get(int64(k))
		if err != nil || row[1].Str != f.model.names[k] || row[2].Int != f.model.ages[k] {
			f.fails++
		}
	}
	return nil
}

func (f *facadeInst) close() {
	if f.db != nil {
		f.db.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
