// Command benchdiff compares two benchmark artifacts (the versioned
// BENCH_*.json envelopes written by corepbench) and exits nonzero when
// any gated metric regressed past the threshold — the CI trend gate.
//
// Usage:
//
//	benchdiff OLD.json NEW.json             # 10% gate
//	benchdiff -threshold 0.05 OLD NEW       # tighter gate
//	benchdiff -report diff.txt OLD NEW      # also write the report to a file
//
// Exit status: 0 clean, 1 regression detected, 2 usage or read error —
// including a baseline (OLD) that carries no git_rev: a comparison
// against numbers nobody can tie to a commit is refused, not printed
// with a question mark.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"corep/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "relative regression gate (0.10 = 10%)")
	report := fs.String("report", "", "also write the text report to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [flags] OLD.json NEW.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	old, err := readEnvelope(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if old.GitRev == "" {
		fmt.Fprintf(stderr, "benchdiff: %s: unstamped baseline (no git_rev), regenerate it with corepbench -sweep %s inside a checkout\n", fs.Arg(0), old.Kind)
		return 2
	}
	new_, err := readEnvelope(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	diff, err := bench.Compare(old, new_, *threshold)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	diff.WriteText(stdout)
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		diff.WriteText(f)
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
	}
	if len(diff.Regressions()) > 0 {
		return 1
	}
	return 0
}

func readEnvelope(path string) (*bench.Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, err := bench.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return env, nil
}
