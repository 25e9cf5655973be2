// Package corep is a storage-level testbed for complex-object
// representation, reproducing Jhingran & Stonebraker, "Alternatives in
// Complex Object Representation: A Performance Perspective" (ICDE 1990).
//
// Its one entry point is Database: a small complex-object database for
// your own schemas, supporting the paper's representation matrix —
// procedural, OID-list and value-based primary representations — with
// multi-dot path retrieval (group.members.name) and a QUEL-like retrieve
// language. The examples in this package's tests walk through all three
// representations, multi-level navigation and a file-backed database.
//
// Everything runs on a from-scratch storage engine (2 KB slotted pages,
// an LRU buffer pool, B-tree / ISAM / hash access methods) whose counted
// page I/O is the performance model, mirroring the paper's INGRES
// testbed. The paper's figures and the benchmark sweeps are regenerated
// by cmd/corepbench, which drives the engine's strategies directly.
package corep

// IOStats reports the cumulative disk traffic.
type IOStats struct {
	Reads, Writes int64
}
