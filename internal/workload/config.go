// Package workload generates the paper's experimental databases and
// query sequences (§4).
//
// Defaults reproduce the paper's environment: |ParentRel| = 10,000
// tuples of ~200 bytes; SizeUnit = 5; |ChildRel| = 50,000/ShareFactor
// tuples of ~100 bytes (eqn. (1)); NumUnits = 10,000/UseFactor; a
// 100-page buffer; SizeCache = 1000 units. Retrieve queries ask for
// ParentRel.children.attr over a random contiguous OID range of NumTop
// parents; updates modify a fixed number of ChildRel tuples in place.
package workload

import (
	"errors"
	"fmt"
)

// Defaults from §4 of the paper.
const (
	DefaultNumParents  = 10000
	DefaultSizeUnit    = 5
	DefaultParentBytes = 200
	DefaultChildBytes  = 100
	DefaultPoolPages   = 100
	DefaultCacheUnits  = 1000
	DefaultUpdateBatch = 10 // ChildRel tuples modified per update query
)

// cacheBuckets is the hash bucket count of the Cache relation.
const cacheBuckets = 256

// Config parameterizes one generated database.
type Config struct {
	NumParents    int // |ParentRel|
	SizeUnit      int // expected subobjects per unit
	UseFactor     int // parents sharing a unit
	OverlapFactor int // units sharing a subobject
	NumChildRel   int // how many relations subobjects are drawn from (§6.2)

	ParentBytes int // target encoded width of a ParentRel tuple
	ChildBytes  int // target encoded width of a ChildRel tuple
	PoolPages   int // buffer pool size in pages
	// PoolShards is the buffer pool's lock-stripe count. The default (1)
	// reproduces the paper's single-client eviction behaviour exactly;
	// concurrent serving (harness.Serve) raises it.
	PoolShards int

	// ProbeBatch turns on page-ordered batching of child-OID probes.
	// Off (the default), strategies probe one OID at a time in arrival
	// order exactly as the paper's INGRES testbed did, preserving every
	// figure's I/O counts; the concurrent serving path turns it on to
	// trade fidelity for fewer page fetches.
	ProbeBatch bool

	Clustered  bool // also build ClusterRel + its ISAM OID index
	CacheUnits int  // SizeCache; 0 disables the cache

	// ScatterClusters deliberately mis-clusters ClusterRel at load time:
	// every subobject's owner is drawn uniformly at random instead of from
	// the unit's home parent, modelling a database whose physical layout
	// has decayed far from the access pattern. Requires Clustered; used as
	// the starting point of the online-reclustering experiments.
	ScatterClusters bool

	// ZipfTheta skews parent popularity in generated sequences: retrieve
	// ranges and update targets concentrate on low-numbered parents with
	// zipf exponent θ (ddtxn/OCB-style contention). 0 (the default) keeps
	// the paper's uniform draws on the exact historic rng stream, so
	// every existing figure and bench cell is unchanged.
	ZipfTheta float64

	Seed int64
}

// WithDefaults fills zero fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.NumParents == 0 {
		c.NumParents = DefaultNumParents
	}
	if c.SizeUnit == 0 {
		c.SizeUnit = DefaultSizeUnit
	}
	if c.UseFactor == 0 {
		c.UseFactor = 1
	}
	if c.OverlapFactor == 0 {
		c.OverlapFactor = 1
	}
	if c.NumChildRel == 0 {
		c.NumChildRel = 1
	}
	if c.ParentBytes == 0 {
		c.ParentBytes = DefaultParentBytes
	}
	if c.ChildBytes == 0 {
		c.ChildBytes = DefaultChildBytes
	}
	if c.PoolPages == 0 {
		c.PoolPages = DefaultPoolPages
	}
	if c.PoolShards == 0 {
		c.PoolShards = 1
	}
	return c
}

// ShareFactor returns UseFactor × OverlapFactor — the expected number of
// objects sharing a subobject (§3.3).
func (c Config) ShareFactor() int { return c.UseFactor * c.OverlapFactor }

// ErrNegative reports a size or count set below zero. Zero asks for the
// default, so no negative value means anything.
var ErrNegative = errors.New("workload: negative parameter")

// Validate rejects configurations the generator cannot honour.
func (c Config) Validate() error {
	if c.NumParents < 1 || c.SizeUnit < 1 || c.UseFactor < 1 || c.OverlapFactor < 1 || c.NumChildRel < 1 {
		return fmt.Errorf("workload: non-positive parameter in %+v", c)
	}
	if c.NumParents < c.UseFactor {
		return fmt.Errorf("workload: NumParents %d < UseFactor %d", c.NumParents, c.UseFactor)
	}
	numUnits := c.NumParents / c.UseFactor
	if numUnits < c.NumChildRel {
		return fmt.Errorf("workload: %d units cannot span %d child relations", numUnits, c.NumChildRel)
	}
	if c.SizeUnit*8+120 > c.ParentBytes*4 {
		return fmt.Errorf("workload: SizeUnit %d too large for ParentBytes %d", c.SizeUnit, c.ParentBytes)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"PoolPages", c.PoolPages},
		{"PoolShards", c.PoolShards},
		{"ChildBytes", c.ChildBytes},
		{"CacheUnits", c.CacheUnits},
	} {
		if f.v < 0 {
			return fmt.Errorf("%w: %s %d", ErrNegative, f.name, f.v)
		}
	}
	if c.ZipfTheta < 0 {
		return fmt.Errorf("workload: negative ZipfTheta %g", c.ZipfTheta)
	}
	if c.ScatterClusters && !c.Clustered {
		return fmt.Errorf("workload: ScatterClusters requires Clustered")
	}
	return nil
}

func (c Config) String() string {
	s := fmt.Sprintf("parents=%d sizeunit=%d UF=%d OF=%d (SF=%d) nchildrel=%d clustered=%v cache=%d seed=%d",
		c.NumParents, c.SizeUnit, c.UseFactor, c.OverlapFactor, c.ShareFactor(), c.NumChildRel,
		c.Clustered, c.CacheUnits, c.Seed)
	// Appended only when skewed so historic bench-envelope config strings
	// stay byte-identical at the default.
	if c.ZipfTheta != 0 {
		s += fmt.Sprintf(" zipf=%.3g", c.ZipfTheta)
	}
	if c.ScatterClusters {
		s += " scattered=true"
	}
	return s
}
