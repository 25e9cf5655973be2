package planner

import (
	"sync"

	"corep/internal/pql"
)

// PathModel plans multi-dot pql path expansion: for every (relation,
// fan-out bucket) it chooses between per-OID index probes (DFS-flavored
// — cheap for small fan-outs and warm pages) and a batched, page-ordered
// fetch (BFS-flavored — amortizes page reads across the whole OID list),
// learning from the same decayed-cell estimator the strategy planner
// uses. It implements pql.PathPlanner.
type PathModel struct {
	mu    sync.Mutex
	model model
	// treeHeight estimates root-to-leaf probe depth for the prior.
	treeHeight int
	probes     int64
	chosen     [2]int64 // per-traversal choice counts
}

// NewPathModel builds a path planner; treeHeight parameterizes the
// probe prior (use the child relation's B-tree height, or 0 for the
// default).
func NewPathModel(treeHeight int) *PathModel {
	if treeHeight < 1 {
		treeHeight = 2
	}
	return &PathModel{model: newModel(), treeHeight: treeHeight}
}

// arm packs (traversal, relation) into one estimator arm id.
func pathArm(tr pql.Traversal, relID uint16) int {
	return int(tr)<<16 | int(relID)
}

// ChooseTraversal picks the expansion operator for fanout OIDs into
// relID, returning the choice and its estimated page cost.
func (pm *PathModel) ChooseTraversal(relID uint16, fanout int) (pql.Traversal, float64) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	b := bucketOf(fanout)
	est := [2]float64{}
	for _, tr := range []pql.Traversal{pql.TraversalProbe, pql.TraversalBatch} {
		if mean, ok := pm.model.estimate(pathArm(tr, relID), b); ok {
			est[tr] = mean
			continue
		}
		est[tr] = pm.priorTraversal(tr, fanout)
	}
	// Warmup: measure each operator once per (rel, bucket) before
	// trusting estimates; probe-first keeps tiny fan-outs cheap.
	for _, tr := range []pql.Traversal{pql.TraversalProbe, pql.TraversalBatch} {
		if !pm.model.everObserved(pathArm(tr, relID), b) {
			pm.probes++
			pm.chosen[tr]++
			return tr, est[tr]
		}
	}
	tr := pql.TraversalProbe
	if est[pql.TraversalBatch] < est[pql.TraversalProbe] {
		tr = pql.TraversalBatch
	}
	pm.chosen[tr]++
	return tr, est[tr]
}

// priorTraversal: probing pays a root-to-leaf descent per OID; a batch
// sorts the OIDs and touches each distinct leaf page once (~64
// subobject tuples per page) plus a small constant for the batch setup.
func (pm *PathModel) priorTraversal(tr pql.Traversal, fanout int) float64 {
	if tr == pql.TraversalProbe {
		return float64(fanout) * float64(pm.treeHeight)
	}
	pages := float64(fanout)/64 + 1
	return pages + float64(pm.treeHeight)
}

// ObserveTraversal feeds a measured expansion back: tr fetched fanout
// OIDs from relID in pages page reads.
func (pm *PathModel) ObserveTraversal(relID uint16, tr pql.Traversal, fanout int, pages int64) {
	pm.mu.Lock()
	pm.model.observe(pathArm(tr, relID), bucketOf(fanout), float64(pages))
	pm.mu.Unlock()
}

// Counts returns (probe choices, batch choices, warmup probes).
func (pm *PathModel) Counts() (probe, batch, warmup int64) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.chosen[pql.TraversalProbe], pm.chosen[pql.TraversalBatch], pm.probes
}
