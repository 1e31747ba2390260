package harness

import (
	"fmt"
	"sort"
)

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) (*Table, error)
}

// Registry returns every experiment, keyed by the paper's table/figure ID:
// one runner per table and figure of the paper's evaluation, and nothing
// else.
func Registry() []Experiment {
	return []Experiment{
		{"table4", "dataset summary (paper Table 4)", Table4},
		{"table5", "execution time per iteration (paper Table 5)", Table5},
		{"table6", "locality vs compression ratio (paper Table 6)", Table6},
		{"table7", "DRAM transfer orig vs GOrder (paper Table 7)", Table7},
		{"table8", "pre-processing time (paper Table 8)", Table8},
		{"fig1", "vertex-value share of PDPR traffic (paper Fig. 1)", Fig1},
		{"fig6", "predicted traffic vs compression ratio (paper Fig. 6)", Fig6},
		{"fig7", "GTEPS comparison (paper Fig. 7)", Fig7},
		{"fig8", "DRAM bytes per edge (paper Fig. 8)", Fig8},
		{"fig9", "sustained memory bandwidth (paper Fig. 9)", Fig9},
		{"fig10", "DRAM energy per edge (paper Fig. 10)", Fig10},
		{"fig11", "compression ratio vs partition size (paper Fig. 11)", Fig11},
		{"fig12", "traffic vs partition size (paper Fig. 12)", Fig12},
		{"fig13", "execution time vs partition size (paper Fig. 13)", Fig13},
		{"fig14", "phase times vs partition size, sd1 (paper Fig. 14)", Fig14},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}
