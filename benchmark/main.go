// Command benchmark is the repository's one benchmark: six named
// workloads run in closed loop against the engine, every result checked
// against a control, end-to-end metrics measured with tracing off and a
// per-layer ledger produced by a separate traced run. README.md in this
// directory describes the workloads, the metrics and the protocol;
// BENCHMARK.json at the repository root names them for the pipeline.
//
//	go run ./benchmark                       all workloads, seed 1
//	go run ./benchmark -workload wide_scan   one workload
//	go run ./benchmark -trace 1              the traced run (per-layer ledger)
//	go run ./benchmark -selftest             two full sets, compared
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.Int64Var(&cfg.seed, "seed", 1, "the only source of randomness: databases, op sequences and probe inputs")
	fs.IntVar(&cfg.seconds, "seconds", baseSeconds, "measured seconds per workload the op counts are sized for")
	fs.BoolVar(&cfg.quick, "quick", false, "1/20 of the ops, one round: a smoke run")
	fs.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for traces, results.json and the durable workload's files")
	workload := fs.String("workload", "", "run one workload (default: all six)")
	trace := fs.Int("trace", 0, "1: the traced run — root span per op, layer probes, per-layer metrics")
	selftest := fs.Bool("selftest", false, "run the full set twice and hold the two to BENCHMARK.json's bounds")
	writeJSON := fs.Bool("json", false, "also write <out>/results.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	cfg.traced = *trace == 1

	defs := workloads
	if *workload != "" {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defs = []workloadDef{w}
	}

	// The default collector setting whatever the environment says;
	// measure pins GOMAXPROCS to the workload's client count.
	debug.SetGCPercent(100)
	h := newHeader(cfg)
	h.print(stdout)

	if *selftest {
		// The bounds the pipeline applies, on the workloads it applies
		// them to; run from the repository root.
		if *workload == "" {
			defs = nil
			for _, w := range workloads {
				if w.ungated == "" {
					defs = append(defs, w)
				}
			}
		}
		spec, err := readSpec("BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		a, err := runSet(defs, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		b, err := runSet(defs, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if bad := selfTest(stdout, spec, a, b); bad > 0 || !allCorrect(a) || !allCorrect(b) {
			fmt.Fprintf(stdout, "selftest: FAILED (%d metric(s) out of bound)\n", bad)
			return 1
		}
		fmt.Fprintln(stdout, "selftest: ok")
		return 0
	}

	results, err := runSet(defs, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *writeJSON {
		if err := writeResults(cfg.outDir, h, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !allCorrect(results) {
		fmt.Fprintln(stderr, "benchmark: wrong results; see failed counts above")
		return 1
	}
	return 0
}

// runSet measures each workload once and prints its report.
func runSet(defs []workloadDef, cfg config, w io.Writer) ([]*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var results []*result
	for _, def := range defs {
		res, err := measure(def, cfg)
		if err != nil {
			return nil, err
		}
		res.print(w, def)
		results = append(results, res)
	}
	return results, nil
}

func allCorrect(results []*result) bool {
	for _, r := range results {
		if !r.Correct {
			return false
		}
	}
	return true
}

// newHeader stamps the run. The revision comes from the build info the
// go command embeds when it builds inside a git work tree; an exported
// checkout has none, and says so rather than leaving the field empty.
func newHeader(cfg config) header {
	h := header{
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, Traced: cfg.traced,
		GitRev: "unversioned", GoVersion: runtime.Version(),
		GOMAXPROCS: "one per client", GOGC: 100, NProc: runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitRev = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}
