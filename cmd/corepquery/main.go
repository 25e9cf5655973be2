// Command corepquery is an interactive shell for the object API's
// retrieve language, preloaded with the paper's example database
// (persons, cyclists, and groups under all three primary
// representations).
//
// Usage:
//
//	corepquery                          # interactive
//	echo 'retrieve (person.name) where person.age >= 60' | corepquery
//
// Commands:
//
//	retrieve (...) [where ...]   run a query
//	\path <group-key>            retrieve (group.members.name) for one group
//	\plan retrieve (...)         show the operator pipeline without executing
//	\heat                        hottest units seen by the adaptive-clustering tracker
//	\reclust                     reorganize: pack the hottest units onto shared extent pages
//	\stats                       consolidated per-layer counters (\stats json for raw JSON)
//	\checkpoint                  flush + sync the page file, replace the sidecar, truncate the WAL (-file only)
//	\slow                        the retained slowest queries with attributed I/O
//	\faults                      fault-injection and retry counters
//	\help                        this text
//	\quit
//
// Flags: -trace streams per-span JSON lines to stderr, -profile <prefix>
// writes CPU/heap profiles on exit. The -fault-* flags arm a seeded
// deterministic fault plan (e.g. -fault-transient 0.01) so retry and
// degradation behavior can be explored interactively. The slow-query
// log is on by default (-slow-n 16); -slow-threshold marks and counts
// queries at or over a latency budget. -file backs the shell with an
// on-disk page file (reopened across runs, example data loaded on first
// use); -wal additionally write-ahead logs every commit with group
// commit and crash recovery — kill the shell mid-write and the next
// -file -wal start replays the log.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"corep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the shell over args: it answers the commands read from in on
// out, and writes flag errors, the -trace stream and any error that ends
// it to errOut. It returns the exit status.
func run(args []string, in io.Reader, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("corepquery", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		trace   = fs.Bool("trace", false, "stream per-span JSON lines to stderr")
		profile = fs.String("profile", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof on exit")
		latency = fs.Duration("latency", 0, "simulated per-page device latency (e.g. 200us)")

		file    = fs.String("file", "", "back the shell with this on-disk page file (persists across runs)")
		walFlag = fs.Bool("wal", false, "with -file: write-ahead log every commit (group commit + crash recovery)")

		slowN         = fs.Int("slow-n", 16, "slow-query log capacity (0 disables \\slow)")
		slowThreshold = fs.Duration("slow-threshold", 0, "mark queries at or over this latency as SLO violations in \\slow")

		faultSeed      = fs.Int64("fault-seed", 1, "seed for the deterministic fault plan (with -fault-*)")
		faultTransient = fs.Float64("fault-transient", 0, "per-transfer probability of a retryable read/write error")
		faultPermanent = fs.Float64("fault-permanent", 0, "per-transfer probability of condemning the touched page")
		faultTorn      = fs.Float64("fault-torn", 0, "per-write probability of a torn (half-persisted) write")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(errOut, err)
		return 1
	}

	if *profile != "" {
		cpu, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			return fail(err)
		}
		defer cpu.Close()
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
		defer func() {
			heap, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fmt.Fprintln(errOut, err)
				return
			}
			defer heap.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(heap); err != nil {
				fmt.Fprintln(errOut, err)
			}
		}()
	}

	if *walFlag && *file == "" {
		return fail(errors.New("-wal requires -file (the log lives next to the page file)"))
	}
	opts := corep.Options{
		Path:        *file,
		BufferPages: 100,
		// \path reads the cache at a pinned snapshot epoch and heats the
		// units \heat shows and \reclust packs; \stats shows it all.
		CacheUnits:       64,
		Versioned:        true,
		Reclustering:     true,
		SlowLogCapacity:  *slowN,
		SlowLogThreshold: *slowThreshold,
	}
	if *trace {
		opts.Trace = errOut
	}
	db, groups, err := openDB(out, opts, *walFlag)
	if err != nil {
		return fail(err)
	}
	if *file != "" {
		defer db.Close()
	}
	if *latency > 0 {
		db.SetDeviceLatency(*latency)
	}
	if *faultTransient > 0 || *faultPermanent > 0 || *faultTorn > 0 {
		db.SetFaultPlan(&corep.FaultConfig{
			Seed:          *faultSeed,
			TransientRate: *faultTransient,
			PermanentRate: *faultPermanent,
			TornRate:      *faultTorn,
		})
		fmt.Fprintf(out, "fault injection armed (seed=%d): transient=%g permanent=%g torn=%g — \\faults for counters\n",
			*faultSeed, *faultTransient, *faultPermanent, *faultTorn)
	}
	fmt.Fprintln(out, "corep query shell — the paper's example database is loaded.")
	fmt.Fprintln(out, "relations: person(OID,name,age), cyclist(OID,name), group(key,name,members)")
	fmt.Fprintf(out, "groups: %s\n", strings.Join(groups, ", "))
	fmt.Fprintln(out, `try: retrieve (person.name, person.age) where person.age >= 60`)
	fmt.Fprintln(out, `     \path 1    \stats    \slow    \help    \quit`)

	sc := bufio.NewScanner(in)
	interactive := isTerminal(in)
	for {
		if interactive {
			fmt.Fprint(out, "corep> ")
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return 0
		case line == `\help`:
			fmt.Fprintln(out, `retrieve (...) [where ...] | \path <key> | \plan <query> | \heat | \reclust | \stats [json] | \checkpoint | \slow | \faults | \quit`)
		case line == `\stats` || line == `\stats json`:
			printSnapshot(out, db.Snapshot(), strings.HasSuffix(line, "json"))
		case line == `\checkpoint`:
			if err := db.Checkpoint(); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if ws := db.Snapshot().WAL; ws != nil {
				fmt.Fprintf(out, "checkpoint complete, wal truncated (%d truncation(s) this session)\n", ws.Truncates)
			} else {
				fmt.Fprintln(out, "checkpoint complete")
			}
		case line == `\heat`:
			units := db.HottestUnits(10)
			if len(units) == 0 {
				fmt.Fprintln(out, "heat table empty (run some \\path queries first)")
				continue
			}
			for _, u := range units {
				mark := ""
				if u.Migrated {
					mark = "  (migrated)"
				}
				fmt.Fprintf(out, "  %-10s key=%-6d heat=%.3f%s\n", u.Relation, u.Key, u.Heat, mark)
			}
		case line == `\reclust`:
			res, err := db.Reorganize(0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "reorganized %d unit(s): %d subobject cop(ies) packed onto %d extent page(s)\n",
				res.Units, res.Objects, res.Pages)
		case line == `\slow`:
			printSlow(out, db.SlowQueries())
		case line == `\faults`:
			fs := db.Snapshot().Faults
			fmt.Fprintf(out, "faults: %d injected over %d ops (%d transient, %d permanent hits, %d torn); pool retried %d, recovered %d\n",
				fs.Injected, fs.Ops, fs.Transient, fs.Permanent, fs.Torn, fs.Retries, fs.Recovered)
		case strings.HasPrefix(line, `\plan`):
			src := strings.TrimSpace(strings.TrimPrefix(line, `\plan`))
			if src == "" {
				fmt.Fprintln(out, "usage: \\plan retrieve (...) [where ...]")
				continue
			}
			plan, err := db.ExplainQuery(src)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, plan.String())
		case strings.HasPrefix(line, `\path`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\path`))
			key, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				fmt.Fprintln(out, "usage: \\path <group-key>")
				continue
			}
			vals, err := db.RetrievePath("group", "members", "name", key, key)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, v := range vals {
				fmt.Fprintln(out, " ", v.Str)
			}
		default:
			res, err := db.Query(line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintln(out, strings.Join(res.Columns, " | "))
			for _, row := range res.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.String()
				}
				fmt.Fprintln(out, strings.Join(cells, " | "))
			}
			fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
		}
	}
	return 0
}

// openDB builds the shell's database: in-memory with the §2 example by
// default, or backed by the on-disk page file opts.Path names (recovering
// its WAL and skipping the example load when the file already holds it).
func openDB(out io.Writer, opts corep.Options, useWAL bool) (*corep.Database, []string, error) {
	db, err := corep.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	if res := db.RecoveryResult(); res != nil {
		fmt.Fprintf(out, "wal: recovered %d page image(s) across %d commit(s), discarded %d torn-tail record(s)\n",
			res.Replayed, len(res.Commits), res.DiscardedRecords)
	}
	if useWAL {
		if err := db.EnableWAL(); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	if _, err := db.Relation("person"); err == nil {
		// Reopened: the example rows are already on disk.
		return db, []string{"1=elders", "2=children", "3=cyclists"}, nil
	}
	groups, err := loadExample(db)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, groups, nil
}

// loadExample loads the §2 example.
func loadExample(db *corep.Database) ([]string, error) {
	person, err := db.CreateRelation("person",
		corep.IntField("OID"), corep.StrField("name"), corep.IntField("age"))
	if err != nil {
		return nil, err
	}
	oids := map[string]corep.OID{}
	for i, p := range []struct {
		name string
		age  int64
	}{
		{"John", 62}, {"Mary", 62}, {"Paul", 68},
		{"Jill", 8}, {"Bill", 12}, {"Mike", 44},
	} {
		oid, err := person.Insert(corep.Row{corep.Int(int64(i + 1)), corep.Str(p.name), corep.Int(p.age)})
		if err != nil {
			return nil, err
		}
		oids[p.name] = oid
	}
	cyclist, err := db.CreateRelation("cyclist",
		corep.IntField("OID"), corep.StrField("name"))
	if err != nil {
		return nil, err
	}
	for i, name := range []string{"Mary", "Mike"} {
		if _, err := cyclist.Insert(corep.Row{corep.Int(int64(i + 1)), corep.Str(name)}); err != nil {
			return nil, err
		}
	}
	group, err := db.CreateRelation("group",
		corep.IntField("key"), corep.StrField("name"), corep.ChildrenField("members"))
	if err != nil {
		return nil, err
	}
	defs := []struct {
		key      int64
		name     string
		children corep.Children
	}{
		{1, "elders", corep.ProcChildren(`retrieve (person.all) where person.age >= 60`)},
		{2, "children", corep.ProcChildren(`retrieve (person.all) where person.age <= 15`)},
		{3, "cyclists", corep.OIDChildren(oids["Mary"], oids["Mike"])},
	}
	var names []string
	for _, g := range defs {
		if _, err := group.InsertWith(
			corep.Row{corep.Int(g.key), corep.Str(g.name), corep.Value{}},
			map[string]corep.Children{"members": g.children}); err != nil {
			return nil, err
		}
		names = append(names, fmt.Sprintf("%d=%s", g.key, g.name))
	}
	return names, nil
}

// isTerminal reports whether in is a terminal (best effort, no syscalls
// beyond Stat).
func isTerminal(in io.Reader) bool {
	f, ok := in.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// printSnapshot renders the consolidated counters, one layer per line
// (or raw JSON with \stats json).
func printSnapshot(out io.Writer, snap corep.Snapshot, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
		return
	}
	fmt.Fprintf(out, "disk:     %d reads, %d writes\n", snap.Disk.Reads, snap.Disk.Writes)
	fmt.Fprintf(out, "buffer:   %d hits, %d misses, %d flushes, %d pins\n",
		snap.Buffer.Hits, snap.Buffer.Misses, snap.Buffer.Flushes, snap.Buffer.Pins)
	if snap.Cache != nil {
		fmt.Fprintf(out, "cache:    %d hits, %d misses, %d inserts, %d evictions, %d invalidations\n",
			snap.Cache.Hits, snap.Cache.Misses, snap.Cache.Inserts,
			snap.Cache.Evictions, snap.Cache.Invalidations)
	}
	if snap.Txn != nil {
		fmt.Fprintf(out, "txn:      epoch %d, %d commits (%d versions), %d aborts, %d snapshot reads, %d latch waits\n",
			snap.Txn.Published, snap.Txn.Commits, snap.Txn.Installed,
			snap.Txn.Aborts, snap.Txn.Snapshots, snap.Txn.Waited)
	}
	if snap.WAL != nil {
		fmt.Fprintf(out, "wal:      %d commits in %d fsyncs (group %.2f, max %d), %d page images, %d truncations",
			snap.WAL.Commits, snap.WAL.Fsyncs, snap.WAL.GroupSize, snap.WAL.MaxGroup,
			snap.WAL.PageImages, snap.WAL.Truncates)
		if snap.WAL.RecoveryReplayed > 0 || snap.WAL.RecoveryDiscarded > 0 {
			fmt.Fprintf(out, "; recovery replayed %d, discarded %d", snap.WAL.RecoveryReplayed, snap.WAL.RecoveryDiscarded)
		}
		fmt.Fprintln(out)
	}
	if rs := snap.Reclust; rs != nil {
		fmt.Fprintf(out, "reclust:  %d units tracked (%d touches, %d evictions), %d migrations in %d batches, %d pages rewritten, %d placements (%d dropped)\n",
			rs.Tracked, rs.Touches, rs.Evictions, rs.Migrated, rs.Batches, rs.PagesDirty, rs.Placements, rs.Dropped)
	}
	fmt.Fprintf(out, "faults:   %d injected over %d ops; pool retried %d, recovered %d\n",
		snap.Faults.Injected, snap.Faults.Ops, snap.Faults.Retries, snap.Faults.Recovered)
	if snap.SlowLog.Enabled {
		fmt.Fprintf(out, "slow log: %d/%d retained of %d observed",
			snap.SlowLog.Retained, snap.SlowLog.Capacity, snap.SlowLog.Observed)
		if snap.SlowLog.Threshold > 0 {
			fmt.Fprintf(out, ", %d over %s", snap.SlowLog.Violations, snap.SlowLog.Threshold)
		}
		fmt.Fprintln(out)
	}
}

// printSlow lists the retained slow queries, slowest first, with their
// attributed I/O and span trees.
func printSlow(out io.Writer, slow []corep.SlowQuery) {
	if len(slow) == 0 {
		fmt.Fprintln(out, "slow log empty (run some queries, or start with -slow-n > 0)")
		return
	}
	for i, q := range slow {
		mark := ""
		if q.OverSLO {
			mark = "  OVER-SLO"
		}
		if q.Err != "" {
			mark += "  err=" + q.Err
		}
		fmt.Fprintf(out, "[%d] %-12s %12s  io=%d%s\n", i, q.Name, q.Duration, q.TotalIO(), mark)
		for _, sp := range q.Spans {
			indent := "      "
			if sp.Parent != 0 {
				indent += "  "
			}
			fmt.Fprintf(out, "%s%s: %d reads, %d writes, %d hits, %d misses\n",
				indent, sp.Name, sp.Reads, sp.Writes, sp.Hits, sp.Misses)
		}
	}
}
