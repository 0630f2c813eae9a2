// Command triage is the offline desync analyzer: it ingests one incident
// bundle written by the flight recorder (or one per site), deterministically
// replays the embedded input window from the nearest checkpoint, bisects the
// exact first divergent frame, diffs the expected machine state against the
// recorded one, and renders the merged two-site timeline.
//
// Usage:
//
//	triage [-json] site0.rkfb [site1.rkfb]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"retrolock/internal/flight"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("triage", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: triage [-json] bundle.rkfb [bundle2.rkfb]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) < 1 || len(paths) > 2 {
		fs.Usage()
		return 2
	}

	var bundles []*flight.Bundle
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(stderr, "triage: %v\n", err)
			return 1
		}
		b, err := flight.Decode(data)
		if err != nil {
			fmt.Fprintf(stderr, "triage: %s: %v\n", p, err)
			return 1
		}
		bundles = append(bundles, b)
		if !*jsonOut {
			m := b.Manifest
			fmt.Fprintf(stdout, "%s: site %d, incident %q at frame %d, game %q, %d frames recorded",
				p, m.Site, m.Kind, m.Frame, m.Game, len(b.Frames))
			if m.Cause != "" {
				fmt.Fprintf(stdout, "\n  cause: %s", m.Cause)
			}
			fmt.Fprintln(stdout)
		}
	}

	report, err := flight.Analyze(bundles...)
	if err != nil {
		fmt.Fprintf(stderr, "triage: %v\n", err)
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "triage: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintln(stdout)
	report.Format(stdout)
	return 0
}
