// Package stock carries self-contained editions of the three stock
// golang.org/x/tools/go/analysis passes the project bundles into
// pcpm-lint: nilness, shadow, and unusedwrite — the ones go vet does not
// run by default. The build is
// hermetic (no module downloads), so rather than importing x/tools these
// reimplement each pass's highest-signal core on the standard library's
// go/ast and go/types. Each file documents exactly what its edition
// catches and what the SSA-based original would additionally catch, so
// nobody mistakes a clean run for the full upstream analysis.
package stock
