package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Direction classifies how a metric's movement reads.
type Direction int

const (
	// Info metrics are reported but never gate (counters that legitimately
	// vary run to run: retries, clean errors, fault injections).
	Info Direction = iota
	// LowerBetter metrics regress when they grow (latencies, page I/O,
	// violations, failures).
	LowerBetter
	// HigherBetter metrics regress when they shrink (QPS, speedups).
	HigherBetter
)

func (d Direction) String() string {
	switch d {
	case LowerBetter:
		return "lower-better"
	case HigherBetter:
		return "higher-better"
	}
	return "info"
}

// higherBetter names metrics where bigger is better.
var higherBetter = map[string]bool{
	"qps":          true,
	"retrieve_qps": true,
	"update_qps":   true,
	"commit_qps":   true,
	"speedup":      true,
}

// MetricDirection classifies a metric name: an explicit allowlist for
// higher-better, suffix conventions for lower-better (latency
// percentiles end in _ns, I/O counters in reads/writes/io, per-query
// cost rates in per_query), everything else informational. Unknown
// metrics never gate a build.
func MetricDirection(name string) Direction {
	if higherBetter[name] {
		return HigherBetter
	}
	switch {
	case strings.HasSuffix(name, "_ns"),
		strings.HasSuffix(name, "reads"),
		strings.HasSuffix(name, "writes"),
		strings.HasSuffix(name, "io"),
		strings.HasSuffix(name, "per_query"),
		strings.HasSuffix(name, "violations"),
		strings.HasSuffix(name, "failed"):
		return LowerBetter
	}
	return Info
}

// Delta is one (cell, metric) comparison.
type Delta struct {
	Cell      string    `json:"cell"`
	Metric    string    `json:"metric"`
	Old       float64   `json:"old"`
	New       float64   `json:"new"`
	Change    float64   `json:"change"` // signed relative change, new/old - 1 (0 when old == 0)
	Direction Direction `json:"-"`
	Regressed bool      `json:"regressed,omitempty"`
}

func (d Delta) String() string {
	return fmt.Sprintf("%s %s: %.4g → %.4g (%+.1f%%, %s)",
		d.Cell, d.Metric, d.Old, d.New, d.Change*100, d.Direction)
}

// Diff is the full comparison of two envelopes of the same kind.
type Diff struct {
	Kind      string  `json:"kind"`
	OldRev    string  `json:"old_rev,omitempty"`
	NewRev    string  `json:"new_rev,omitempty"`
	Threshold float64 `json:"threshold"`
	Deltas    []Delta `json:"deltas"`
	// MissingCells lists cells present in only one run — reported, never
	// gated (sweeps legitimately change shape across PRs).
	MissingCells []string `json:"missing_cells,omitempty"`
}

// Regressions returns the deltas that breached the threshold.
func (d *Diff) Regressions() []Delta {
	var out []Delta
	for _, dl := range d.Deltas {
		if dl.Regressed {
			out = append(out, dl)
		}
	}
	return out
}

// Compare diffs two envelopes cell by cell. threshold is the relative
// regression gate (0.10 = 10%): a lower-better metric regresses when it
// grows past old*(1+threshold) — or appears at all where the old run had
// zero — and a higher-better metric when it falls below
// old*(1-threshold). Informational metrics are reported unguarded.
func Compare(old, new_ *Envelope, threshold float64) (*Diff, error) {
	if old.Kind != new_.Kind {
		return nil, fmt.Errorf("bench: comparing %q run against %q run", new_.Kind, old.Kind)
	}
	if threshold < 0 {
		threshold = 0
	}
	d := &Diff{Kind: old.Kind, OldRev: old.GitRev, NewRev: new_.GitRev, Threshold: threshold}
	seen := map[string]bool{}
	for _, oc := range old.Cells {
		seen[oc.Name] = true
		nc := new_.Cell(oc.Name)
		if nc == nil {
			d.MissingCells = append(d.MissingCells, oc.Name+" (old only)")
			continue
		}
		for _, m := range oc.SortedMetrics() {
			nv, ok := nc.Metrics[m]
			if !ok {
				continue
			}
			ov := oc.Metrics[m]
			dl := Delta{Cell: oc.Name, Metric: m, Old: ov, New: nv, Direction: MetricDirection(m)}
			if ov != 0 {
				dl.Change = nv/ov - 1
			} else if nv != 0 {
				dl.Change = math.Inf(1)
			}
			switch dl.Direction {
			case LowerBetter:
				dl.Regressed = nv > ov*(1+threshold) && nv > ov
			case HigherBetter:
				dl.Regressed = nv < ov*(1-threshold)
			}
			d.Deltas = append(d.Deltas, dl)
		}
	}
	for _, nc := range new_.Cells {
		if !seen[nc.Name] {
			d.MissingCells = append(d.MissingCells, nc.Name+" (new only)")
		}
	}
	return d, nil
}

// WriteText renders the diff as a readable report: regressions first,
// then every gated metric, then informational movement above 1%.
func (d *Diff) WriteText(w io.Writer) {
	fmt.Fprintf(w, "benchdiff %s: old=%s new=%s threshold=%.0f%%\n",
		d.Kind, revOr(d.OldRev, "?"), revOr(d.NewRev, "?"), d.Threshold*100)
	regs := d.Regressions()
	if len(regs) == 0 {
		fmt.Fprintf(w, "no regressions across %d compared metrics\n", len(d.Deltas))
	} else {
		fmt.Fprintf(w, "%d REGRESSION(S):\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(w, "  REGRESSION %s\n", r)
		}
	}
	for _, dl := range d.Deltas {
		if dl.Regressed || dl.Direction == Info && math.Abs(dl.Change) < 0.01 {
			continue
		}
		if dl.Direction == Info {
			fmt.Fprintf(w, "  info       %s\n", dl)
		} else {
			fmt.Fprintf(w, "  ok         %s\n", dl)
		}
	}
	for _, m := range d.MissingCells {
		fmt.Fprintf(w, "  cell mismatch: %s\n", m)
	}
}

func revOr(rev, fallback string) string {
	if rev == "" {
		return fallback
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev
}
