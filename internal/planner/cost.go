package planner

import (
	"corep/internal/strategy"
	"corep/internal/workload"
)

// Shape is the static description of a database the analytic priors are
// parameterized by: index geometry, fan-out, and which auxiliary
// structures exist. Build one with ShapeOf.
type Shape struct {
	// NumParents is the stored parent count: no query selects more.
	NumParents int
	// ParentHeight/ParentLeaves describe ParentRel's B-tree.
	ParentHeight int
	ParentLeaves int
	// ChildHeight/ChildLeaves describe the (first) child relation's tree.
	ChildHeight int
	ChildLeaves int
	// SizeUnit is subobjects per parent; ShareFactor parents per unit.
	SizeUnit    int
	ShareFactor int
	// HasCache/CacheUnits describe the outside value cache.
	HasCache   bool
	CacheUnits int
	// HasCluster marks a built ClusterRel; ClusterHeight its ISAM OID
	// index depth (probes per unclustered subobject fetch).
	HasCluster    bool
	ClusterHeight int
	// ClusterCoverage is the fraction of subobjects sitting on their home
	// cluster page (riding the parent scan for free): 1 for a clean
	// load-time clustering, ~0 when the layout was scattered, lifted back
	// up by online reclustering placements. The DFSCLUST prior charges
	// ISAM probes for the uncovered remainder.
	ClusterCoverage float64
}

// ShapeOf derives the cost shape from a built workload database.
func ShapeOf(db *workload.DB) Shape {
	s := Shape{
		NumParents:  db.Cfg.NumParents,
		SizeUnit:    db.Cfg.SizeUnit,
		ShareFactor: db.Cfg.ShareFactor(),
	}
	if db.Parent != nil && db.Parent.Tree != nil {
		s.ParentHeight = db.Parent.Tree.Height()
		s.ParentLeaves = db.Parent.Tree.LeafPages()
	}
	if len(db.Children) > 0 && db.Children[0].Tree != nil {
		s.ChildHeight = db.Children[0].Tree.Height()
		s.ChildLeaves = db.Children[0].Tree.LeafPages()
	}
	if db.Cache != nil {
		s.HasCache = true
		s.CacheUnits = db.Cache.Capacity()
	}
	if db.ClusterRel != nil {
		s.HasCluster = true
		if db.ClusterRel.Index != nil {
			s.ClusterHeight = 2 // ISAM: directory + leaf
		}
		if db.ClusterRel.Tree != nil && s.ParentHeight == 0 {
			s.ParentHeight = db.ClusterRel.Tree.Height()
		}
		s.ClusterCoverage = 1
		if db.Cfg.ScatterClusters {
			// Scattered layout: nothing sits on its home page until the
			// online reclusterer migrates it — credit its placements.
			s.ClusterCoverage = 0
			if db.Cfg.SizeUnit > 0 && len(db.Units) > 0 {
				placed := float64(db.Placements()) /
					float64(len(db.Units)*db.Cfg.SizeUnit)
				if placed > 1 {
					placed = 1
				}
				s.ClusterCoverage = placed
			}
		}
	}
	return s
}

// Temp-file geometry, mirrored from the BFS optimizer (bfs.go): a temp
// page holds (2048-24)/12 OID entries, and an external sort costs about
// three passes over the temp.
const (
	tempValuesPerPage = (2048 - 24) / 12
	sortPassFactor    = 3
)

// prior computes the analytic I/O estimate for kind answering a
// numTop-parent query, in pages. The formulas deliberately mirror the
// strategies' own cost structure (and, for BFS, its internal
// probe-vs-merge optimizer) rather than aiming for absolute accuracy:
// the planner only needs their relative order to be right. They do not
// model the buffer pool (every probe is charged as a miss) or the
// update rate (it reaches DFSCACHE through warmth only).
func (p *Planner) prior(kind strategy.Kind, numTop int) float64 {
	s := p.shape
	if s.NumParents > 0 {
		// An open bound (NumTop math.MaxInt) selects every stored parent;
		// priced unclamped it would overflow the products below.
		numTop = min(numTop, s.NumParents)
	}
	n := numTop * s.SizeUnit // subobject fetches the query implies
	if n < 1 {
		n = 1
	}

	// Parent access: a range scan reads the root-to-leaf path plus the
	// fraction of leaf pages covering numTop keys.
	par := float64(s.ParentHeight)
	if s.ParentLeaves > 0 {
		frac := float64(numTop) / float64(s.ParentLeaves*64) // ~64 parents/leaf
		if frac > 1 {
			frac = 1
		}
		par += frac * float64(s.ParentLeaves)
	}

	childHeight := s.ChildHeight
	if childHeight < 1 {
		childHeight = 2
	}

	switch kind {
	case strategy.DFS:
		// One index probe per subobject OID.
		return par + float64(n)*float64(childHeight)

	case strategy.BFS, strategy.BFSNODUP:
		eff := n
		if kind == strategy.BFSNODUP && s.ShareFactor > 1 {
			eff = n / s.ShareFactor // dedup shrinks the temp
		}
		tempPages := (eff + tempValuesPerPage - 1) / tempValuesPerPage
		form := float64(2 * tempPages) // write + reread the temp
		probe := float64(eff) * float64(childHeight)
		merge := float64(sortPassFactor*tempPages) + float64(s.ChildLeaves)
		join := probe
		if merge < join {
			join = merge
		}
		if kind == strategy.BFSNODUP {
			// Dedup always sorts the temp before joining.
			form += float64(sortPassFactor * tempPages)
		}
		return par + form + join

	case strategy.DFSCACHE:
		// Hits cost one hash-bucket page per unit; misses pay the DFS
		// child probes plus the insert write-back. Warmth is the live
		// signal maintained from observed hit rates and update pressure.
		w := p.warmth
		if s.CacheUnits > 0 && numTop > s.CacheUnits {
			// The cache cannot cover more units than its capacity.
			cap := float64(s.CacheUnits) / float64(numTop)
			if w > cap {
				w = cap
			}
		}
		hit := float64(numTop) * w
		missUnits := float64(numTop) * (1 - w)
		missIO := missUnits * (float64(s.SizeUnit)*float64(childHeight) + 1) // probes + insert
		return par + hit + missIO

	case strategy.DFSCLUST:
		// Covered subobjects ride the parent scan (par over ClusterRel
		// spans object+subobject tuples); the rest — shared units homed in
		// another parent's cluster, plus everything a scattered layout
		// displaced — are fetched via the ISAM OID index.
		clustered := s.ClusterCoverage / float64(max(s.ShareFactor, 1))
		isam := s.ClusterHeight
		if isam < 1 {
			isam = 2
		}
		ride := par * float64(1+s.SizeUnit) / 2 // wider tuples under the same scan
		outside := float64(n) * (1 - clustered) * float64(isam)
		return ride + outside
	}

	// Unknown kind (SMART is never a candidate): effectively infinite.
	return 1e18
}
