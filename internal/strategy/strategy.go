// Package strategy implements the paper's query-processing strategies
// for the OID representation (Figure 2):
//
//	DFS       — depth-first: per-parent index probes into ChildRel
//	BFS       — breadth-first: temp of OIDs, then iterative substitution
//	            or sort + merge join, whichever the optimizer estimates
//	            cheaper (§3.1)
//	BFSNODUP  — BFS with duplicate elimination on the temp (§3.1 [3])
//	DFSCACHE  — DFS consulting and maintaining the outside value cache
//	            (§3.2)
//	DFSCLUST  — DFS over ClusterRel: clustered subobjects ride along the
//	            parent scan, the rest are fetched via the ISAM OID index
//	            (§3.3)
//	SMART     — DFSCACHE below a NumTop threshold, above it a
//	            breadth-first pass whose temp skips cached units and
//	            which does not maintain the cache (§5.3)
//
// All strategies answer the same query shape,
//
//	retrieve (ParentRel.children.attr) where lo ≤ ParentRel.OID ≤ hi,
//
// and apply the same update ops; their I/O cost is the experiment.
package strategy

import (
	"errors"
	"fmt"
	"math"

	"corep/internal/txn"
	"corep/internal/workload"
)

// Kind enumerates the strategies.
type Kind uint8

// Strategy kinds, in the paper's order.
const (
	DFS Kind = iota
	BFS
	BFSNODUP
	DFSCACHE
	DFSCLUST
	SMART
	// DFSCACHEINSIDE is an ablation beyond the paper's Figure 2: inside
	// caching, where each referencing object gets its own cache entry and
	// nothing is shared. [JHIN88] (and §3.2's argument) predict it loses
	// to outside caching once units are shared; the abl-inside bench
	// reproduces that.
	DFSCACHEINSIDE
)

// Planned identifies the cost-based planner's adaptive dispatcher
// (internal/planner), which picks one of the static kinds per query. It
// is not itself a static strategy: it never appears in AllKinds and
// strategy.New rejects it — construct it with planner.NewPlanned.
const Planned Kind = 255

// AllKinds lists every strategy.
var AllKinds = []Kind{DFS, BFS, BFSNODUP, DFSCACHE, DFSCLUST, SMART}

// AllKindsWithAblations additionally includes the strategies that go
// beyond the paper's Figure 2.
var AllKindsWithAblations = append(append([]Kind(nil), AllKinds...), DFSCACHEINSIDE)

func (k Kind) String() string {
	switch k {
	case DFS:
		return "DFS"
	case BFS:
		return "BFS"
	case BFSNODUP:
		return "BFSNODUP"
	case DFSCACHE:
		return "DFSCACHE"
	case DFSCLUST:
		return "DFSCLUST"
	case SMART:
		return "SMART"
	case DFSCACHEINSIDE:
		return "DFSCACHE-INSIDE"
	case Planned:
		return "PLANNED"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Query is one retrieve: parents with lo ≤ key ≤ hi, projecting the
// subobject attribute at AttrIdx (workload.FieldRet1..3).
type Query struct {
	Lo, Hi  int64
	AttrIdx int

	// Snap, when non-nil, is the versioned-serving snapshot this
	// retrieve reads at: projected ret1 values are overlaid with the
	// newest version at or under its epoch, and cache traffic carries
	// the epoch for watermark checks. Nil — every single-threaded and
	// latched path — reads the base layout exactly as before.
	Snap *txn.Snapshot
}

// NumTop returns the number of parents the query selects: the size of
// its key range, 0 when the range is empty, math.MaxInt when an open
// bound (Hi = math.MaxInt64, say) makes it larger than an int holds.
func (q Query) NumTop() int {
	if q.Hi < q.Lo {
		return 0
	}
	if d := uint64(q.Hi) - uint64(q.Lo); d < math.MaxInt {
		return int(d) + 1
	}
	return math.MaxInt
}

// CostSplit separates a retrieve's I/O into the cost of accessing
// ParentRel tuples (ParCost) and the cost of fetching subobjects
// (ChildCost) — the decomposition behind Figure 5.
type CostSplit struct {
	Par   int64
	Child int64
}

// Total returns Par + Child.
func (c CostSplit) Total() int64 { return c.Par + c.Child }

// Add accumulates another split.
func (c *CostSplit) Add(o CostSplit) { c.Par += o.Par; c.Child += o.Child }

// Result is a retrieve's output: one projected value per (parent,
// subobject) pair — except under BFSNODUP, which eliminates duplicate
// subobjects — plus the measured cost split.
type Result struct {
	Values []int64
	Split  CostSplit
}

// Strategy executes retrieves and updates against a workload database.
type Strategy interface {
	Kind() Kind
	// Retrieve answers q, charging I/O to db's disk.
	Retrieve(db *workload.DB, q Query) (*Result, error)
	// Update applies op through this strategy's layout, including any
	// cache maintenance it implies.
	Update(db *workload.DB, op workload.Op) error
}

// Errors returned by New.
var (
	ErrNeedsCache   = errors.New("strategy: database built without a cache")
	ErrNeedsCluster = errors.New("strategy: database built without ClusterRel")
	// ErrOneLevel refuses a caching or clustering strategy on a database
	// whose child relations carry children of their own: a cached unit
	// and a cluster hold last-level records, and only DFS, BFS and
	// BFSNODUP walk levels.
	ErrOneLevel = errors.New("strategy: walks one level of subobjects, database has more")
)

// DefaultSmartThreshold is N of §5.3 ("N=300 in our experiments").
const DefaultSmartThreshold = 300

// New constructs a strategy of the given kind for db, validating that
// the database has the structures the strategy needs.
func New(kind Kind, db *workload.DB) (Strategy, error) {
	switch kind {
	case DFSCACHE, DFSCACHEINSIDE, DFSCLUST, SMART:
		if multiLevel(db) {
			return nil, fmt.Errorf("%w (%v)", ErrOneLevel, kind)
		}
	}
	switch kind {
	case DFS:
		return dfs{}, nil
	case BFS:
		return bfs{dedup: false}, nil
	case BFSNODUP:
		return bfs{dedup: true}, nil
	case DFSCACHE:
		if db.Cache == nil {
			return nil, ErrNeedsCache
		}
		return dfscache{}, nil
	case DFSCLUST:
		if db.ClusterRel == nil {
			return nil, ErrNeedsCluster
		}
		return dfsclust{}, nil
	case SMART:
		if db.Cache == nil {
			return nil, ErrNeedsCache
		}
		return smart{threshold: DefaultSmartThreshold}, nil
	case DFSCACHEINSIDE:
		if db.Cache == nil {
			return nil, ErrNeedsCache
		}
		return dfscache{inside: true}, nil
	}
	return nil, fmt.Errorf("strategy: unknown kind %d", kind)
}

// NewSmart constructs SMART with an explicit NumTop threshold.
func NewSmart(db *workload.DB, threshold int) (Strategy, error) {
	if _, err := New(SMART, db); err != nil {
		return nil, err
	}
	return smart{threshold: threshold}, nil
}
