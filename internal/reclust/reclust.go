// Package reclust is the substrate of heat-driven online reclustering
// (the Darmont line of PAPERS.md: simple access statistics driving
// incremental re-placement recover most of the statically-clustered
// I/O figure without stopping the world).
//
// Three pieces, deliberately storage-agnostic so both the workload
// layer (ClusterRel extents) and the object-API facade (relation heap
// extents) reuse them:
//
//   - Tracker: bounded, decayed per-parent access-heat counters, fed
//     directly by the read paths (engine.Core.Touch). Decay is
//     multiplicative per logical tick, so the *ordering* of heats is
//     invariant under scaling every touch weight — the property test's
//     contract — and eviction removes the coldest entry first.
//   - Map: an epoch-versioned placement map OID → Entry. Migrated
//     objects are never deleted from their old location (copy
//     forwarding); an entry only redirects readers to the new, packed
//     copy. Entries carry the epoch they published at, so a snapshot
//     reader pinned before a migration keeps resolving the old
//     location while newer snapshots take the redirect.
//   - EncodePlacements/DecodePlacements: the WAL metadata codec. A
//     migration batch rides its placement state as a metadata blob in
//     front of its commit record, so crash recovery restores exactly
//     the placements whose page images are durable — no lost and no
//     duplicated placements.
package reclust

// Stats aggregates reclustering counters for snapshots and benches.
type Stats struct {
	Tracked    int   `json:"units_tracked"`      // heat-table entries
	Touches    int64 `json:"touches"`            // heat feed events
	Evictions  int64 `json:"heat_evictions"`     // coldest-first heat-table evictions
	Placements int   `json:"placements"`         // live placement-map entries
	Migrated   int64 `json:"migrations"`         // objects copied onto extent pages
	Batches    int64 `json:"batches"`            // migration steps committed
	PagesDirty int64 `json:"pages_rewritten"`    // extent pages written to
	Dropped    int64 `json:"placements_dropped"` // placements retired by updates
}
