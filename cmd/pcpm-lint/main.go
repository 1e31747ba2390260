// Command pcpm-lint is the project's multichecker: it runs every
// project-invariant analyzer (floatmaporder, snapshotalias, guardedby,
// walorder, closecheck) over the packages matching its arguments and exits
// nonzero on any finding. CI runs it as a gating step, after go vet:
//
//	go run ./cmd/pcpm-lint ./...
//
// Findings print one per line as file:line:col: message [analyzer].
// Suppress a deliberate pattern with `//lint:ignore <analyzer> <reason>` on
// or directly above the flagged line; the reason is mandatory and malformed
// or unused directives are themselves findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/closecheck"
	"repro/internal/lint/floatmaporder"
	"repro/internal/lint/guardedby"
	"repro/internal/lint/snapshotalias"
	"repro/internal/lint/walorder"
)

var analyzers = []*lint.Analyzer{
	floatmaporder.Analyzer,
	snapshotalias.Analyzer,
	guardedby.Analyzer,
	walorder.Analyzer,
	closecheck.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pcpm-lint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pcpm-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
