package main

import "fmt"

// opKind is the kind of one operation of a workload's fixed sequence.
type opKind uint8

const (
	opRetrieve opKind = iota
	opUpdate
	opCheckpoint
	numKinds
)

var kindNames = [numKinds]string{"retrieve", "update", "checkpoint"}

// counterID indexes the public layer counters the driver reads around
// rounds (and, in the traced run, around every op).
type counterID int

const (
	cDiskReads counterID = iota
	cDiskWrites
	cPins
	cHits
	cMisses
	cFlushes
	cRetries
	cCacheHits
	cCacheMisses
	cCacheInserts
	cCacheEvictions
	cCacheInvalidations
	cCacheStale
	cTxnCommits
	cTxnLatchWaits
	cTxnOverlayHits
	cTxnSnapshots
	cWALPageImages
	cWALFsyncs
	cWALCommits
	cWALBytes
	cParIO
	cChildIO
	cValues
	numCounters
)

var counterNames = [numCounters]string{
	"disk.reads", "disk.writes",
	"buffer.pins", "buffer.hits", "buffer.misses", "buffer.flushes", "buffer.retries",
	"cache.hits", "cache.misses", "cache.inserts", "cache.evictions", "cache.invalidations", "cache.stale_rejects",
	"txn.commits", "txn.latch_waits", "txn.overlay_hits", "txn.snapshots",
	"wal.page_images", "wal.fsyncs", "wal.commits", "wal.bytes",
	"strategy.par_io", "strategy.child_io", "strategy.values",
}

// counters is one reading of every layer counter. Readings are
// monotonic within a round, so a delta is a per-round (or per-op) count.
type counters [numCounters]int64

func (a counters) sub(b counters) (d counters) {
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

func (a *counters) add(b counters) {
	for i := range a {
		a[i] += b[i]
	}
}

// instance is one built workload: a database under test, its fixed op
// sequence and the control that says what every op must return.
//
// Client c of n runs ops c, c+n, c+2n, ... of the sequence in order.
// exec is the only call inside a timed window; check verifies what the
// same client's last exec left behind and advances the control, between
// two timed windows.
type instance interface {
	// kinds is the fixed sequence, one kind per op.
	kinds() []opKind
	clients() int
	// adopt seeds the control from a twin built from the same seed (the
	// instance itself when only one was built).
	adopt(twin instance) error
	// beginRound and endRound bracket one replay of the sequence,
	// outside the timed window: cold resets, drains, state checks.
	beginRound() error
	endRound() error
	exec(client, i int) error
	check(client, i int) bool
	// stateFailures counts control mismatches found outside single ops
	// (post-drain state, durability); any makes the run incorrect.
	stateFailures() int
	counters() counters
	// space is bytes stored and bytes of user tuple data.
	space() (stored, user int64, err error)
	// finish runs once after the last round (the durability check) and
	// may add per-layer figures.
	finish(extra map[string]float64) error
	close()
}

// sizes scales a workload. Scale 1 is the op count of a ~2.7 s round on
// a 2-core 2.1 GHz host; -seconds S sets scale S/8 over three measured
// rounds, -quick 1/20 over one.
type sizes struct {
	scale  float64
	rounds int
	setups int // timed set-ups per run; setup_s is their median
}

func (s sizes) n(base int) int {
	n := int(float64(base)*s.scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// workloadDef is one named workload: either an engine workload (a
// workload.DB driven through one strategy) or a facade workload (the
// public corep.Database).
type workloadDef struct {
	name   string
	why    string
	engine func(seed int64, sz sizes) engineSpec
	facade func(sz sizes) facadeSpec
	// note is printed with the results (flush policy and the like).
	note string
	// ungated says why BENCHMARK.json does not name the workload: its
	// timings are the host's, not the engine's, so the pipeline cannot
	// hold them to a bound. It still runs, checked, with every other one.
	ungated string
}

// setup builds the database from the seed and generates the op
// sequence; everything it does is set-up time.
func (w workloadDef) setup(seed int64, sz sizes, outDir string) (instance, error) {
	if w.engine != nil {
		return setupEngine(w.engine(seed, sz))
	}
	return setupFacade(w.facade(sz), seed, outDir)
}

var workloads = []workloadDef{
	{
		name:   "wide_scan",
		why:    "BFS over NumTop 200 on a database 17x the pool: buffer miss/evict, disk, temp+sort+merge-join and leaf walks; cache, txn, wal, pql idle",
		engine: wideScan,
	},
	{
		name:   "cached_point",
		why:    "DFSCACHE point lookups with 10% updates, cache holds half the units: cache, hashfile and I-lock invalidation, one layer used two ways",
		engine: cachedPoint,
	},
	{
		name:   "clustered_warm",
		why:    "DFSCLUST on a database that fits the pool: pure CPU of isam/cluster scan, slot access, tuple decode and the buffer hit path",
		engine: clusteredWarm,
	},
	{
		name:   "object_api",
		why:    "public facade: RetrievePath, the same path as a pql Query, and Update over all three primary representations; pql, catalog, object codecs",
		facade: objectAPI,
	},
	{
		name:    "durable_update",
		why:     "file-backed facade with the WAL on: 80% updates each fsynced at commit, periodic checkpoints, reads beside writes, recovery check at the end",
		facade:  durableUpdate,
		note:    "flush policy: one fsync per commit (single client, no group to share it); sandbox file system, not a device",
		ungated: "nine tenths of an update is the fsync of a shared host's disk",
	},
	{
		name:    "serve_2c",
		why:     "two clients on versioned serving with zipf-hot keys and 30% updates: txn snapshot/commit, latch stripes, sharded-pool locks, contention",
		engine:  serve2C,
		ungated: "two clients and the collector on two shared cores time the scheduler",
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
