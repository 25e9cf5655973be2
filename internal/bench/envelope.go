// Package bench is the benchmark-artifact layer: every BENCH_*.json the
// repo writes travels in one versioned envelope (schema version, git
// revision, timestamp, flattened metric cells, full payload), so runs
// from different commits stay comparable and cmd/benchdiff can gate
// regressions across any pair of artifacts without format-specific
// special cases.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is bumped whenever the envelope layout changes
// incompatibly; benchdiff refuses to compare across versions.
const SchemaVersion = 1

// Envelope wraps one benchmark run.
type Envelope struct {
	Schema    int       `json:"schema_version"`
	Kind      string    `json:"kind"` // throughput | prefetch | chaos | slo | ...
	GitRev    string    `json:"git_rev,omitempty"`
	Dirty     bool      `json:"git_dirty,omitempty"`
	GoVersion string    `json:"go_version,omitempty"`
	MaxProcs  int       `json:"gomaxprocs,omitempty"`
	Timestamp time.Time `json:"timestamp"`
	// Cells is the comparable surface: every benchmark flattens its
	// results into named cells of scalar metrics.
	Cells []Cell `json:"cells"`
	// Payload preserves the benchmark's full native result for readers
	// that want more than the flattened cells.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Cell is one comparable unit of a run — a (client count, mode) point, a
// (latency, depth) point, a strategy — holding scalar metrics by name.
type Cell struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// New builds a stamped envelope around payload: git revision, Go
// version and GOMAXPROCS tie the numbers to a commit and a host shape.
func New(kind string, payload any, cells []Cell) (*Envelope, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("bench: marshal %s payload: %w", kind, err)
	}
	env := &Envelope{
		Schema:    SchemaVersion,
		Kind:      kind,
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Timestamp: time.Now().UTC(),
		Cells:     cells,
		Payload:   raw,
	}
	env.GitRev, env.Dirty = vcsRevision()
	return env, nil
}

// vcsRevision reads the build's embedded VCS stamp, falling back to
// asking git about the working directory: `go run` and `go test`
// binaries — how every checked-in BENCH_*.json is produced — carry no
// stamp. Empty outside a checkout or without git.
func vcsRevision() (rev string, dirty bool) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev != "" {
		return rev, dirty
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	// A failed status leaves dirty false: the rev alone is still worth
	// stamping.
	status, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(status) > 0
}

// Write stamps payload and cells into an envelope of the given kind and
// writes it to w.
func Write(w io.Writer, kind string, payload any, cells []Cell) error {
	env, err := New(kind, payload, cells)
	if err != nil {
		return err
	}
	return env.WriteJSON(w)
}

// WriteJSON writes the envelope as indented JSON.
func (e *Envelope) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Read decodes one envelope, rejecting unversioned or foreign files with
// an actionable error.
func Read(r io.Reader) (*Envelope, error) {
	var e Envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("bench: decode envelope: %w", err)
	}
	if e.Schema == 0 {
		return nil, fmt.Errorf("bench: file has no schema_version — not a versioned envelope (regenerate the artifact with the current corepbench)")
	}
	if e.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: envelope schema v%d, this build reads v%d", e.Schema, SchemaVersion)
	}
	return &e, nil
}

// Cell returns the named cell (nil when absent).
func (e *Envelope) Cell(name string) *Cell {
	for i := range e.Cells {
		if e.Cells[i].Name == name {
			return &e.Cells[i]
		}
	}
	return nil
}

// SortedMetrics returns the cell's metric names in stable order.
func (c *Cell) SortedMetrics() []string {
	names := make([]string, 0, len(c.Metrics))
	for n := range c.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteCells prints cells one per line, metrics in name order — the
// human-readable form of exactly what the envelope holds and benchdiff
// compares. Latencies (a *_ns metric, or a percentile demoted to its
// bare informational name) print as durations.
func WriteCells(w io.Writer, cells []Cell) {
	for _, c := range cells {
		fmt.Fprintf(w, "  %-26s", c.Name)
		for _, m := range c.SortedMetrics() {
			v := c.Metrics[m]
			switch base := strings.TrimSuffix(m, "_ns"); {
			case base != m, base == "max", base == "p50", base == "p95", base == "p99":
				fmt.Fprintf(w, " %s=%s", base, time.Duration(v).Round(time.Microsecond))
			default:
				fmt.Fprintf(w, " %s=%.4g", m, v)
			}
		}
		fmt.Fprintln(w)
	}
}
