package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// ledgerRow is one line of the outside-in attribution: how often the
// traced round called into a layer (from its public counters) times
// what one such call costs (from the layer's probe).
type ledgerRow struct {
	Layer      string  `json:"layer"`
	CallsPerOp float64 `json:"calls_per_op"`
	NsPerCall  float64 `json:"ns_per_call"`
	UsPerOp    float64 `json:"est_us_per_op"`
}

// attribute builds the ledger and the two trace.* figures. The ledger
// covers only calls the public counters count; what it leaves
// unexplained is the case for spans inside the engine.
func (res *result) attribute(tr *tracer, traced roundFigures) {
	p := res.PerLayer
	ops := float64(traced.Ops)
	per := func(id counterID) float64 { return float64(traced.counts[id]) / ops }
	// A miss's disk read is the disk's line, not the pool's.
	missSelf := math.Max(0, p["buffer.pin_miss_ns"]-p["disk.read_ns"])
	res.Ledger = []ledgerRow{
		{Layer: "disk.read", CallsPerOp: per(cDiskReads), NsPerCall: p["disk.read_ns"]},
		{Layer: "disk.write", CallsPerOp: per(cDiskWrites), NsPerCall: p["disk.write_ns"]},
		{Layer: "buffer.pin_hit", CallsPerOp: per(cHits), NsPerCall: p["buffer.pin_hit_ns"]},
		{Layer: "buffer.pin_miss", CallsPerOp: per(cMisses), NsPerCall: missSelf},
		{Layer: "tuple.decode_field", CallsPerOp: per(cValues), NsPerCall: p["tuple.decode_field_ns"]},
		{Layer: "cache.lookup_hit", CallsPerOp: per(cCacheHits), NsPerCall: p["cache.lookup_hit_ns"]},
		{Layer: "cache.lookup_miss", CallsPerOp: per(cCacheMisses), NsPerCall: p["cache.lookup_miss_ns"]},
		{Layer: "cache.insert", CallsPerOp: per(cCacheInserts), NsPerCall: p["cache.insert_at_capacity_ns"]},
		{Layer: "cache.invalidate", CallsPerOp: per(cCacheInvalidations), NsPerCall: p["cache.invalidate_ns"]},
		{Layer: "txn.snapshot", CallsPerOp: per(cTxnSnapshots), NsPerCall: p["txn.begin_release_ns"]},
		{Layer: "txn.commit", CallsPerOp: per(cTxnCommits), NsPerCall: p["txn.commit_ns"]},
		{Layer: "wal.append_page", CallsPerOp: per(cWALPageImages), NsPerCall: p["wal.append_page_ns"]},
		{Layer: "wal.append_commit", CallsPerOp: per(cWALCommits), NsPerCall: p["wal.append_commit_ns"]},
		{Layer: "wal.sync", CallsPerOp: per(cWALFsyncs), NsPerCall: p["wal.sync_ns"]},
	}
	var sumUs float64
	for i := range res.Ledger {
		r := &res.Ledger[i]
		r.UsPerOp = r.CallsPerOp * r.NsPerCall / 1e3
		sumUs += r.UsPerOp
	}
	rootUs := float64(tr.totalNamed("op.")) / 1e3 / ops
	p["trace.attributed_share"] = div(sumUs, rootUs)
	var walls []float64
	for _, f := range res.Rounds {
		walls = append(walls, f.WallSec)
	}
	p["trace.overhead_share"] = 1 - div(median(walls), traced.WallSec)
}

// header records what the numbers were measured on.
type header struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Traced     bool   `json:"traced"`
	GitRev     string `json:"git_rev"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS string `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	NProc      int    `json:"nproc"`
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "corep benchmark: seed=%d seconds=%d quick=%v traced=%v git_rev=%s dirty=%v %s GOMAXPROCS=%q GOGC=%d nproc=%d\n",
		h.Seed, h.Seconds, h.Quick, h.Traced, h.GitRev, h.Dirty, h.GoVersion, h.GOMAXPROCS, h.GOGC, h.NProc)
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// print writes the human-readable report of one workload, then its
// contract line.
func (res *result) print(w io.Writer, def workloadDef) {
	r0 := res.Rounds[0]
	fmt.Fprintf(w, "\n== %s: %d measured round(s) x %d ops, %d set-up(s), %d client(s), GOMAXPROCS=%d ==\n",
		res.Workload, len(res.Rounds), r0.Ops, len(res.SetupsSec), res.Clients, res.Clients)
	fmt.Fprintf(w, "why: %s\n", def.why)
	if res.Note != "" {
		fmt.Fprintf(w, "note: %s\n", res.Note)
	}
	if def.ungated != "" {
		fmt.Fprintf(w, "not gated by BENCHMARK.json: %s\n", def.ungated)
	}
	kinds := make([]string, 0, len(r0.Samples))
	for k := range r0.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "samples per round: %s=%d\n", k, r0.Samples[k])
	}
	fmt.Fprintf(w, "end-to-end (tracing off):\n")
	printMetrics(w, endToEnd, res.EndToEnd)
	fmt.Fprintf(w, "per-layer:\n")
	printMetrics(w, perLayer, res.PerLayer)
	if len(res.Ledger) > 0 {
		fmt.Fprintf(w, "ledger (calls per op x ns per call, traced round):\n")
		for _, r := range res.Ledger {
			if r.CallsPerOp != 0 {
				fmt.Fprintf(w, "  %-20s %12.3f x %10.1f ns = %10.2f us/op\n", r.Layer, r.CallsPerOp, r.NsPerCall, r.UsPerOp)
			}
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	fmt.Fprintln(w, res.contractLine())
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one JSON object the benchmark contract reads:
// every end-to-end metric of an untraced run, every per-layer metric of
// a traced one. A per-layer figure the workload has no source for
// (no log, no version store, no checkpoint) reads 0.
func (res *result) contractLine() string {
	defs, vals := endToEnd, res.EndToEnd
	if res.Traced {
		defs, vals = perLayer, res.PerLayer
	}
	metrics := make(map[string]contractMetric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = contractMetric{Value: vals[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // floats and strings always marshal
	}
	return string(line)
}

// writeResults writes out/results.json: header, metrics by workload and
// the per-round raw figures, for pipelines and benchdiff-style tools.
func writeResults(outDir string, h header, results []*result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(struct {
		Header  header    `json:"header"`
		Results []*result `json:"results"`
	}{h, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), append(raw, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json the self-test needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactEndToEnd are counters, not timings: with one client and no timer
// they must repeat bit for bit at the same seed.
var exactEndToEnd = map[string]bool{"io_per_op": true, "space_amp": true}

// exactPerLayer lists the group-A counts held to the same standard.
var exactPerLayer = []string{
	"disk.reads_per_op", "disk.writes_per_op", "disk.pages",
	"buffer.pins_per_op", "buffer.hit_ratio", "buffer.flushes_per_op",
	"cache.lookups_per_op", "cache.hit_ratio", "cache.inserts_per_op", "cache.evictions_per_op", "cache.invalidations_per_update",
	"strategy.par_io_per_retrieve", "strategy.child_io_per_retrieve", "strategy.values_per_retrieve",
	"wal.page_images_per_commit", "wal.fsyncs_per_commit", "wal.bytes_per_commit",
}

// selfTest compares two complete runs of the same code: exact counters
// of single-client workloads must be identical, every other end-to-end
// metric within its bound. It returns the number of violations.
func selfTest(w io.Writer, spec *benchmarkSpec, a, b []*result) int {
	bad := 0
	for i := range a {
		ra, rb := a[i], b[i]
		single := ra.Clients == 1
		fmt.Fprintf(w, "\n== selftest %s ==\n", ra.Workload)
		fmt.Fprintf(w, "  %-20s %14s %14s %9s %7s\n", "metric", "run 1", "run 2", "diff", "bound")
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "ok"
			switch {
			case single && exactEndToEnd[m.Name]:
				if va != vb {
					verdict = "NOT IDENTICAL"
				}
			case diff > m.Bound:
				verdict = "OUT OF BOUND"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "  %-20s %14.4f %14.4f %8.2f%% %6.1f%% %s\n", m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		if !single {
			continue
		}
		for _, name := range exactPerLayer {
			if va, vb := ra.PerLayer[name], rb.PerLayer[name]; va != vb {
				bad++
				fmt.Fprintf(w, "  %-36s %v != %v NOT IDENTICAL\n", name, va, vb)
			}
		}
	}
	return bad
}
