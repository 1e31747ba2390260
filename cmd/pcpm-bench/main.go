// Command pcpm-bench regenerates the paper's tables and figures on the
// scaled dataset analogs.
//
// Usage:
//
//	pcpm-bench -run all                     # every experiment
//	pcpm-bench -run table5,fig7 -divisor 256
//	pcpm-bench -list
//	pcpm-bench -run fig8 -format csv -out fig8.csv
//
// There is one experiment per table and figure of the paper's evaluation;
// docs/PAPER_MAPPING.md maps each to its runner and records the tables of
// runners since retired.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		divisor = flag.Int("divisor", 256, "dataset scale divisor (paper size / divisor)")
		iters   = flag.Int("iters", 20, "timed iterations per measurement")
		workers = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		format  = flag.String("format", "text", "output format: text, csv, or markdown")
		out     = flag.String("out", "", "write output to file instead of stdout")
	)
	flag.Parse()

	switch *format {
	case "text", "csv", "markdown":
	default:
		fmt.Fprintf(os.Stderr, "pcpm-bench: unknown -format %q (want text, csv, or markdown)\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, e := range harness.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	opt := harness.Options{
		Divisor:    *divisor,
		Workers:    *workers,
		Iterations: *iters,
		Seed:       *seed,
	}

	var ids []string
	if *run == "all" {
		for _, e := range harness.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	var b strings.Builder
	for _, id := range ids {
		exp, err := harness.Lookup(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		table, err := exp.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp.ID, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			b.WriteString(table.CSV())
		case "markdown":
			b.WriteString(table.Markdown())
		case "text":
			b.WriteString(table.Render())
			fmt.Fprintf(&b, "(%s in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(b.String())
}
