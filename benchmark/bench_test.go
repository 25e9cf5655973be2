package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func quickConfig(t *testing.T, seed int64, traced bool) config {
	t.Helper()
	return config{seed: seed, seconds: baseSeconds, quick: true, traced: traced, outDir: t.TempDir()}
}

// TestSpecMatchesDriver holds BENCHMARK.json and the driver's own metric
// and workload tables in step: same names, units and directions, and
// bounds the contract accepts.
func TestSpecMatchesDriver(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gated []workloadDef
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), driver %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the driver has %d", len(spec.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, driver %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the driver has %d (limit 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, driver %+v", i, m, d)
		}
	}
}

// parseLine checks the contract line of a result: every named metric
// emitted once, finite and unit-tagged.
func parseLine(t *testing.T, res *result, defs []metricDef) map[string]contractMetric {
	t.Helper()
	var line struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
		t.Fatalf("%s: contract line: %v", res.Workload, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", res.Workload, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d named", res.Workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", res.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	return line.Metrics
}

// TestQuickRun runs all six workloads at the quick scale, untraced and
// traced. The traced run measures its baseline round from a fresh build
// of the same seed, so the exact counters of the two must agree bit for
// bit; another seed must move them.
func TestQuickRun(t *testing.T) {
	for _, def := range workloads {
		plain, err := measure(def, quickConfig(t, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range parseLine(t, plain, endToEnd) {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must be positive", def.name, name, m.Value)
			}
		}

		tcfg := quickConfig(t, 1, true)
		traced, err := measure(def, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		layers := parseLine(t, traced, perLayer)
		if v := layers["trace.attributed_share"].Value; v <= 0 {
			t.Errorf("%s: trace.attributed_share = %v", def.name, v)
		}
		checkTrace(t, filepath.Join(tcfg.outDir, def.name+".trace.jsonl"), def.name, traced.Rounds[0].Ops)

		if plain.Clients == 1 {
			for name := range exactEndToEnd {
				if a, b := plain.EndToEnd[name], traced.EndToEnd[name]; a != b {
					t.Errorf("%s: %s differs between two builds of one seed: %v, %v", def.name, name, a, b)
				}
			}
			for _, name := range exactPerLayer {
				if a, b := plain.PerLayer[name], traced.PerLayer[name]; a != b {
					t.Errorf("%s: %s differs between two builds of one seed: %v, %v", def.name, name, a, b)
				}
			}
		}
		for _, layer := range []string{"wal.page_images_per_commit", "txn.commits"} {
			used := map[string]string{"wal.page_images_per_commit": "durable_update", "txn.commits": "serve_2c"}[layer]
			if v := plain.PerLayer[layer]; (v != 0) != (def.name == used) {
				t.Errorf("%s: %s = %v; only %s uses that layer", def.name, layer, v, used)
			}
		}

		other, err := measure(def, quickConfig(t, 2, false))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := plain.EndToEnd["io_per_op"], other.EndToEnd["io_per_op"]; a == b {
			t.Errorf("%s: io_per_op is %v at seeds 1 and 2: the seed does not reach the inputs", def.name, a)
		}
	}
}

// checkTrace reads a trace file: one JSON object per span, every op a
// child of the round span, self time never above the span's duration.
func checkTrace(t *testing.T, path, trace string, ops int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	round, opSpans := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Trace != trace || s.Span == 0 || s.Name == "" || s.EndNs < s.StartNs || s.SelfNs > s.EndNs-s.StartNs || s.SelfNs < 0 {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Name == "round" {
			round = s.Span
		}
		if strings.HasPrefix(s.Name, "op.") {
			opSpans++
			if s.Parent != round {
				t.Fatalf("%s: op span %d has parent %d, round span is %d", path, s.Span, s.Parent, round)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if opSpans != ops {
		t.Errorf("%s: %d op spans for %d ops", path, opSpans, ops)
	}
}

// TestCorruptedControlFails makes sure the correctness gate can fail: a
// control that expects other values must turn retrieves into failed ops.
func TestCorruptedControlFails(t *testing.T) {
	for _, name := range []string{"cached_point", "serve_2c", "object_api"} {
		def, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig(t, 1, false)
		inst, err := def.setup(cfg.seed, cfg.sizes(), cfg.outDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.adopt(inst); err != nil {
			t.Fatal(err)
		}
		switch in := inst.(type) {
		case *engineInst:
			for i := range in.model.vals {
				for f := range in.model.vals[i] {
					in.model.vals[i][f] ^= 1 << 40 // no generated or written value has this bit
				}
			}
		case *facadeInst:
			for i := range in.model.names {
				in.model.names[i] += "?"
			}
		}
		f, err := newRunner(inst).round(nil, len(inst.kinds()))
		if err != nil {
			t.Fatal(err)
		}
		if f.Failed == 0 {
			t.Errorf("%s: a corrupted control failed none of %d ops", name, f.Ops)
		}
		inst.close()
	}
}
