package harness

import (
	"fmt"
	"sync"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/wal"
)

// WAL group-commit sweep: measure how many fsyncs a commit costs as the
// number of concurrent committers grows. Each cell runs a clients×batch
// configuration against a fresh in-memory log device whose Sync carries
// a fixed simulated latency — the knob that makes batching visible.
// With one client every commit pays a full fsync; with N clients the
// leader's fsync covers everyone who queued behind it, so fsyncs per
// commit should fall toward 1/N.

// WALSweepConfig parameterizes RunWALSweep.
type WALSweepConfig struct {
	Clients          []int         // concurrent committer counts, ascending
	Batches          []int         // page images appended per commit
	CommitsPerClient int           // commits each client issues
	SyncDelay        time.Duration // simulated fsync latency
}

// walSweep runs the grid behind BENCH_wal.json, or the quick grid's
// three well-separated client counts at one batch size.
func walSweep(o SweepOpts) (Report, error) {
	return RunWALSweep(WALSweepConfig{
		Clients:          pick(o, []int{1, 2, 4, 8, 16}, []int{1, 4, 16}),
		Batches:          pick(o, []int{1, 4}, []int{1}),
		CommitsPerClient: pick(o, 200, 150),
		SyncDelay:        200 * time.Microsecond,
	})
}

// WALCell is one clients×batch measurement.
type WALCell struct {
	Clients         int           `json:"clients"`
	Batch           int           `json:"batch"`
	Commits         int64         `json:"commits"`
	Fsyncs          int64         `json:"fsyncs"`
	MaxGroup        int64         `json:"max_group"`
	FsyncsPerCommit float64       `json:"fsyncs_per_commit"`
	GroupSize       float64       `json:"group_size"` // commits per fsync
	CommitQPS       float64       `json:"commit_qps"`
	Elapsed         time.Duration `json:"elapsed_ns"`
}

// WALSweep is the full grid, one cell per configuration.
type WALSweep struct {
	Config WALSweepConfig `json:"config"`
	Points []WALCell      `json:"cells"`
}

// RunWALSweep measures the grid. Every commit appends cfg batch page
// images plus a commit record under the log's own serialization, then
// syncs; the harness only checks the books afterward: the log must have
// seen exactly clients×CommitsPerClient commit records, all durable.
func RunWALSweep(cfg WALSweepConfig) (*WALSweep, error) {
	sweep := &WALSweep{Config: cfg}
	for _, batch := range cfg.Batches {
		for _, clients := range cfg.Clients {
			cell, err := runWALCell(clients, batch, cfg)
			if err != nil {
				return nil, err
			}
			sweep.Points = append(sweep.Points, cell)
		}
	}
	return sweep, nil
}

func runWALCell(clients, batch int, cfg WALSweepConfig) (WALCell, error) {
	dev := wal.NewMemDevice(cfg.SyncDelay)
	l, err := wal.Open(dev)
	if err != nil {
		return WALCell{}, err
	}
	img := make([]byte, disk.PageSize)
	var (
		mu   sync.Mutex
		seq  uint64
		wg   sync.WaitGroup
		errs = make(chan error, clients)
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < cfg.CommitsPerClient; i++ {
				mu.Lock()
				for b := 0; b < batch; b++ {
					if _, err := l.AppendPage(disk.PageID(client+1), img); err != nil {
						mu.Unlock()
						errs <- err
						return
					}
				}
				seq++
				lsn, err := l.AppendCommit(seq)
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := l.Sync(lsn); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return WALCell{}, err
		}
	}
	st := l.Stats()
	want := int64(clients) * int64(cfg.CommitsPerClient)
	if st.Commits != want {
		return WALCell{}, fmt.Errorf("wal sweep c%d_b%d: %d commits logged, want %d", clients, batch, st.Commits, want)
	}
	if st.DurableLSN < st.HeadLSN {
		return WALCell{}, fmt.Errorf("wal sweep c%d_b%d: durable %d < head %d after final sync", clients, batch, st.DurableLSN, st.HeadLSN)
	}
	cell := WALCell{
		Clients:  clients,
		Batch:    batch,
		Commits:  st.Commits,
		Fsyncs:   st.Fsyncs,
		MaxGroup: st.MaxGroup,
		Elapsed:  elapsed,
	}
	if st.Fsyncs > 0 {
		cell.GroupSize = float64(st.Commits) / float64(st.Fsyncs)
	}
	if st.Commits > 0 {
		cell.FsyncsPerCommit = float64(st.Fsyncs) / float64(st.Commits)
	}
	if s := elapsed.Seconds(); s > 0 {
		cell.CommitQPS = float64(st.Commits) / s
	}
	return cell, nil
}

// Check verifies the acceptance property: within each batch size,
// fsyncs per commit strictly decreases as the client count grows.
func (s *WALSweep) Check() []Violation {
	var out []Violation
	last := map[int]WALCell{}
	for _, cur := range s.Points {
		prev, ok := last[cur.Batch]
		last[cur.Batch] = cur
		if ok && cur.Clients > prev.Clients && cur.FsyncsPerCommit >= prev.FsyncsPerCommit {
			out = append(out, gate(cur.name(), "fsyncs/commit did not decrease from %d clients (%.3f) to %d clients (%.3f)",
				prev.Clients, prev.FsyncsPerCommit, cur.Clients, cur.FsyncsPerCommit))
		}
	}
	return out
}

func (c WALCell) name() string { return fmt.Sprintf("c%d_b%d", c.Clients, c.Batch) }

// Cells flattens the sweep for the bench envelope.
func (s *WALSweep) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, c := range s.Points {
		cells = append(cells, bench.Cell{
			Name: c.name(),
			Metrics: map[string]float64{
				"commit_qps":        c.CommitQPS,
				"fsyncs":            float64(c.Fsyncs),
				"fsyncs_per_commit": c.FsyncsPerCommit,
				"group_size":        c.GroupSize,
				"max_group":         float64(c.MaxGroup),
			},
		})
	}
	return cells
}
