// Command corepbench regenerates the tables and figures of Jhingran &
// Stonebraker, "Alternatives in Complex Object Representation: A
// Performance Perspective" (ICDE 1990), and runs the benchmark sweeps
// that hold everything added since to its gate.
//
// Usage:
//
//	corepbench -list                    # both tables: experiments and sweeps
//	corepbench -exp fig3                # one experiment at paper scale
//	corepbench -all -scale quick        # every experiment, small scale
//	corepbench -exp fig3,fig5 -seed 7   # several experiments
//	corepbench -exp fig3 -metrics       # + per-cell I/O histograms, cache/buffer breakdowns
//	corepbench -exp fig3 -trace         # + JSON-lines span stream on stderr
//	corepbench -exp fig3 -profile out   # + out.cpu.pprof / out.heap.pprof
//	corepbench -sweep chaos,crash       # full grids, write BENCH_chaos.json and BENCH_crash.json
//	corepbench -sweep txn -scale quick -out t.json   # reduced grid, one named file
//
// Paper scale uses the paper's environment (10,000 parents, sequences
// of up to 1000 queries); quick scale shrinks both so the full suite
// finishes in minutes while preserving the qualitative shapes. For a
// sweep, paper scale is the full grid its checked-in BENCH_<name>.json
// was generated with and quick scale the reduced grid the smoke jobs and
// tests run. A sweep prints its cells, writes them in a stamped envelope
// and exits 1 when its gate (harness.Report.Check) reports a violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corep/internal/bench"
	"corep/internal/harness"
	"corep/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		expName   = flag.String("exp", "", "experiment(s) to run, comma-separated (see -list)")
		sweepName = flag.String("sweep", "", "benchmark sweep(s) to run, comma-separated (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiments and sweeps")
		scale     = flag.String("scale", "paper", "paper or quick (for a sweep: its full or its reduced grid)")
		seed      = flag.Int64("seed", 1, "workload generator seed (a sweep keeps its own default unless this is given)")
		out       = flag.String("out", "", "where a single -sweep writes its envelope (default BENCH_<name>.json, SMOKE_<name>.json at quick scale)")
		plot      = flag.Bool("plot", false, "also render an ASCII log-log chart of each table")
		verify    = flag.Bool("verify", false, "run the cross-strategy agreement self-check and exit")
		metrics   = flag.Bool("metrics", false, "print per-experiment metrics (I/O histograms, cache/buffer breakdowns)")
		trace     = flag.Bool("trace", false, "stream per-span JSON lines to stderr (see -trace-out)")
		traceOut  = flag.String("trace-out", "", "write the span stream to this file instead of stderr")
		profile   = flag.String("profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
		parallel  = flag.Int("parallel", 0, "worker goroutines for experiment grids (default GOMAXPROCS)")
		latency   = flag.Duration("latency", 0, "simulated per-page device latency (e.g. 200us); a serving sweep keeps its default unless this is given")
		watch     = flag.Duration("watch", 0, "periodically dump live metrics to stderr while running (e.g. -watch 2s)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	if *list {
		fmt.Println("experiments (-exp):")
		for _, e := range harness.Experiments {
			fmt.Printf("  %-14s %s\n", e.Name, e.Paper)
		}
		fmt.Println("sweeps (-sweep; bench-trend gates the counted ones at 10%, the clocked ones at 50%):")
		for _, s := range harness.Sweeps {
			kind := "counted"
			if s.Clocked {
				kind = "clocked"
			}
			fmt.Printf("  %-14s %s [%s]\n", s.Name, s.About, kind)
		}
		return 0
	}

	var quick bool
	switch strings.ToLower(*scale) {
	case "paper":
	case "quick":
		quick = true
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want paper or quick)\n", *scale)
		return 2
	}

	if *profile != "" {
		cpu, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return 1
		}
		defer cpu.Close()
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
		defer func() {
			heap, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fmt.Fprintf(os.Stderr, "profile: %v\n", err)
				return
			}
			defer heap.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(heap); err != nil {
				fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			}
		}()
	}

	// liveReg is what -watch dumps: the serving sweeps and the experiment
	// loop publish their current registry here (experiments swap registries,
	// so the watcher follows the pointer, not one registry).
	var liveReg atomic.Pointer[obs.Registry]
	if *watch > 0 {
		*metrics = true // watching implies collecting
		stop := startWatch(*watch, &liveReg)
		defer stop()
	}

	var sink obs.Sink
	if *trace || *traceOut != "" {
		w := os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		sink = obs.NewJSONLSink(w)
	}

	if *verify {
		sc := harness.QuickScale
		sc.Seed = *seed
		sc.Parallel = *parallel
		table, err := harness.VerifyAgreement(sc)
		if table != nil {
			table.Fprint(os.Stdout)
		}
		if err != nil {
			return 1
		}
		return 0
	}

	if *sweepName != "" {
		if *all || *expName != "" {
			fmt.Fprintln(os.Stderr, "-sweep runs sweeps, -exp/-all experiments: pick one")
			return 2
		}
		// A sweep keeps its own default seed and latency unless the flag
		// was given — whatever its value.
		opts := harness.SweepOpts{Quick: quick}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				opts.Seed = seed
			case "latency":
				opts.Latency = latency
			}
		})
		if *watch > 0 {
			opts.Metrics = obs.NewRegistry()
			liveReg.Store(opts.Metrics)
		}
		return runSweeps(*sweepName, opts, *out)
	}

	sc := harness.PaperScale
	if quick {
		sc = harness.QuickScale
	}
	sc.Seed = *seed
	sc.Parallel = *parallel
	sc.DeviceLatency = *latency
	sc.Obs.Sink = sink

	var runs []harness.Experiment
	switch {
	case *all && *expName != "":
		fmt.Fprintln(os.Stderr, "-all and -exp are mutually exclusive")
		return 2
	case *all:
		runs = harness.Experiments
	case *expName != "":
		for _, name := range splitNames(*expName) {
			e, ok := harness.FindExperiment(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
				return 2
			}
			runs = append(runs, e)
		}
		if len(runs) == 0 {
			fmt.Fprintln(os.Stderr, "-exp names no experiment; try -list")
			return 2
		}
	default:
		flag.Usage()
		return 2
	}

	for _, e := range runs {
		// A fresh registry per experiment keeps the per-cell metric names
		// from colliding across experiments.
		if *metrics {
			sc.Obs.Metrics = obs.NewRegistry()
			liveReg.Store(sc.Obs.Metrics)
		}
		start := time.Now()
		fmt.Printf("running %s (%s, scale=%s, seed=%d)...\n", e.Name, e.Paper, *scale, *seed)
		table, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		table.AddNote("elapsed %s", time.Since(start).Round(time.Millisecond))
		table.Fprint(os.Stdout)
		if *plot {
			harness.PlotFromTable(table, true, true).Fprint(os.Stdout)
			fmt.Println()
		}
		if *metrics {
			fmt.Printf("metrics for %s:\n", e.Name)
			sc.Obs.Metrics.WriteText(os.Stdout)
			fmt.Println()
		}
	}
	return 0
}

// splitNames splits a comma-separated -exp / -sweep value.
func splitNames(list string) []string {
	return strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
}

// runSweeps is the one path every sweep takes: run the registered grid,
// print the cells, report the gate, write the envelope.
func runSweeps(list string, opts harness.SweepOpts, out string) int {
	var sweeps []harness.Sweep
	for _, name := range splitNames(list) {
		s, ok := harness.FindSweep(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown sweep %q; try -list\n", name)
			return 2
		}
		// Every named sweep must accept the options before the first one
		// runs (and overwrites its output).
		if _, err := s.Resolve(opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sweeps = append(sweeps, s)
	}
	if len(sweeps) == 0 || out != "" && len(sweeps) > 1 {
		fmt.Fprintln(os.Stderr, "-sweep needs a name (see -list), and -out exactly one")
		return 2
	}
	scale, prefix := "paper", "BENCH_"
	if opts.Quick {
		// A reduced grid must never land on a checked-in baseline's name.
		scale, prefix = "quick", "SMOKE_"
	}
	status := 0
	for _, s := range sweeps {
		fmt.Printf("running %s (scale=%s)...\n", s.Name, scale)
		start := time.Now()
		rep, err := s.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
			return 1
		}
		bench.WriteCells(os.Stdout, rep.Cells())
		violations := rep.Check()
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "%s: VIOLATION %s\n", s.Name, v)
		}
		path := out
		if path == "" {
			path = prefix + s.Name + ".json"
		}
		f, err := os.Create(path)
		if err == nil {
			err = s.Write(f, rep)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
			return 1
		}
		fmt.Printf("wrote %s: %d violation(s) in %s\n", path, len(violations), time.Since(start).Round(time.Millisecond))
		if len(violations) > 0 {
			status = 1
		}
	}
	return status
}

// startWatch dumps the currently published registry to stderr every
// interval until the returned stop func is called — live progress for
// long benchmark runs.
func startWatch(interval time.Duration, reg *atomic.Pointer[obs.Registry]) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				r := reg.Load()
				if r == nil {
					continue
				}
				fmt.Fprintf(os.Stderr, "--- watch %s ---\n", now.Format("15:04:05"))
				r.WriteText(os.Stderr)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}
