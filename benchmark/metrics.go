package main

// metricDef names one reported figure. BENCHMARK.json at the repository
// root carries the same names and units plus the regression bound of
// every end-to-end metric; the smoke test holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists what a user of the engine sees. All of them are
// measured with tracing off and are non-zero on every workload, which is
// why update latency, log bytes per commit and the failure share — each
// undefined or zero on some workload — are per-layer (driver.*, wal.*)
// figures and the contract's attempted/failed counts instead. The
// typical retrieve latency is the interquartile mean (see midMeanUs);
// the plain median is driver.retrieve_p50_us. Tail latency is
// driver.retrieve_p95_us: on a shared host it does not repeat within any
// bound the pipeline accepts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"retrieve_mid_us", "us", "lower"},
	{"io_per_op", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"space_amp", "ratio", "lower"},
}

// perLayer lists the single-layer figures, <layer>.<metric>. Group A
// (counts per op) comes from each layer's public Stats() read around
// the measured rounds; group B (ns per call) from the layer probes of
// the traced run. README.md has the prediction table tying each layer
// to the end-to-end metric it should move.
var perLayer = []metricDef{
	// tuple
	{"tuple.decode_ns", "ns", "lower"},
	{"tuple.decode_field_ns", "ns", "lower"},
	{"tuple.encode_ns", "ns", "lower"},
	{"tuple.decode_allocs", "count", "lower"},
	// storage
	{"storage.record_ns", "ns", "lower"},
	{"storage.live_records_ns_per_rec", "ns", "lower"},
	{"storage.update_ns", "ns", "lower"},
	// disk
	{"disk.reads_per_op", "count", "lower"},
	{"disk.writes_per_op", "count", "lower"},
	{"disk.pages", "count", "lower"},
	{"disk.read_ns", "ns", "lower"},
	{"disk.write_ns", "ns", "lower"},
	// buffer
	{"buffer.pins_per_op", "count", "lower"},
	{"buffer.hit_ratio", "ratio", "higher"},
	{"buffer.flushes_per_op", "count", "lower"},
	{"buffer.retries", "count", "lower"},
	{"buffer.pin_hit_ns", "ns", "lower"},
	{"buffer.pin_miss_ns", "ns", "lower"},
	{"buffer.getbatch_ns_per_page", "ns", "lower"},
	// btree
	{"btree.get_ns", "ns", "lower"},
	{"btree.get_pins", "count", "lower"},
	{"btree.range_ns_per_key", "ns", "lower"},
	{"btree.getbatch_ns_per_key", "ns", "lower"},
	{"btree.update_ns", "ns", "lower"},
	// isam
	{"isam.probe_ns", "ns", "lower"},
	{"isam.probebatch_ns_per_key", "ns", "lower"},
	// hashfile
	{"hashfile.get_ns", "ns", "lower"},
	{"hashfile.put_ns", "ns", "lower"},
	// heap
	{"heap.append_ns", "ns", "lower"},
	{"heap.scan_ns_per_rec", "ns", "lower"},
	// object
	{"object.decode_oids_ns", "ns", "lower"},
	{"object.hashkey_ns", "ns", "lower"},
	// query
	{"query.temp_append_ns", "ns", "lower"},
	{"query.sort_ns_per_key", "ns", "lower"},
	{"query.mergejoin_ns_per_key", "ns", "lower"},
	// cache
	{"cache.lookups_per_op", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.inserts_per_op", "count", "lower"},
	{"cache.evictions_per_op", "count", "lower"},
	{"cache.invalidations_per_update", "count", "lower"},
	{"cache.stale_rejects", "count", "lower"},
	{"cache.lookup_hit_ns", "ns", "lower"},
	{"cache.lookup_miss_ns", "ns", "lower"},
	{"cache.insert_at_capacity_ns", "ns", "lower"},
	{"cache.invalidate_ns", "ns", "lower"},
	// strategy
	{"strategy.par_io_per_retrieve", "count", "lower"},
	{"strategy.child_io_per_retrieve", "count", "lower"},
	{"strategy.values_per_retrieve", "count", "higher"},
	{"strategy.dfs.retrieve_us", "us", "lower"},
	{"strategy.dfs.io_per_retrieve", "count", "lower"},
	{"strategy.bfs.retrieve_us", "us", "lower"},
	{"strategy.bfs.io_per_retrieve", "count", "lower"},
	{"strategy.bfsnodup.retrieve_us", "us", "lower"},
	{"strategy.bfsnodup.io_per_retrieve", "count", "lower"},
	{"strategy.dfscache.retrieve_us", "us", "lower"},
	{"strategy.dfscache.io_per_retrieve", "count", "lower"},
	{"strategy.dfsclust.retrieve_us", "us", "lower"},
	{"strategy.dfsclust.io_per_retrieve", "count", "lower"},
	{"strategy.smart.retrieve_us", "us", "lower"},
	{"strategy.smart.io_per_retrieve", "count", "lower"},
	{"strategy.update_us", "us", "lower"},
	// pql
	{"pql.parse_ns", "ns", "lower"},
	{"pql.exec_scan_us", "us", "lower"},
	{"pql.exec_path_us", "us", "lower"},
	{"pql.explain_ns", "ns", "lower"},
	// catalog
	{"catalog.get_ns", "ns", "lower"},
	// corep (facade)
	{"corep.fetch_ns", "ns", "lower"},
	{"corep.fetchbatch_ns_per_oid", "ns", "lower"},
	{"corep.resolve_us", "us", "lower"},
	{"corep.retrievepath_us", "us", "lower"},
	{"corep.query_us", "us", "lower"},
	{"corep.update_us", "us", "lower"},
	{"corep.checkpoint_ms", "ms", "lower"},
	// txn
	{"txn.commits", "count", "higher"},
	{"txn.latch_waits_per_commit", "count", "lower"},
	{"txn.overlay_hits_per_retrieve", "count", "lower"},
	{"txn.drain_ms", "ms", "lower"},
	{"txn.begin_release_ns", "ns", "lower"},
	{"txn.commit_ns", "ns", "lower"},
	{"txn.snapshot_read_ns", "ns", "lower"},
	// wal
	{"wal.page_images_per_commit", "count", "lower"},
	{"wal.fsyncs_per_commit", "count", "lower"},
	{"wal.bytes_per_commit", "B", "lower"},
	{"wal.replayed_commits", "count", "higher"},
	{"wal.recover_ms", "ms", "lower"},
	{"wal.append_page_ns", "ns", "lower"},
	{"wal.append_commit_ns", "ns", "lower"},
	{"wal.sync_ns", "ns", "lower"},
	// default-off subsystems: probes only
	{"planner.choose_ns", "ns", "lower"},
	{"planner.observe_ns", "ns", "lower"},
	{"reclust.touch_ns", "ns", "lower"},
	{"reclust.map_lookup_ns", "ns", "lower"},
	{"reclust.step_us_per_unit", "us", "lower"},
	{"obs.span_disabled_ns", "ns", "lower"},
	{"obs.span_enabled_ns", "ns", "lower"},
	// workload generator
	{"workload.build_s", "s", "lower"},
	{"workload.gensequence_ms", "ms", "lower"},
	// driver: figures that explain noise and the latencies that are not
	// defined on every workload; never gated
	{"driver.retrieve_p50_us", "us", "lower"},
	{"driver.retrieve_p95_us", "us", "lower"},
	{"driver.update_p50_us", "us", "lower"},
	{"driver.update_p95_us", "us", "lower"},
	{"driver.retrieve_p99_us", "us", "lower"},
	{"driver.update_p99_us", "us", "lower"},
	{"driver.max_us", "us", "lower"},
	{"driver.round_spread", "ratio", "lower"},
	{"driver.gc_cycles", "count", "lower"},
	{"driver.gc_pause_ms", "ms", "lower"},
	{"driver.warmup_s", "s", "lower"},
	{"driver.failed_ops_share", "ratio", "lower"},
	// the traced run against the untraced one
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.attributed_share", "ratio", "higher"},
}
