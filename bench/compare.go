package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"text/tabwriter"
)

// resultSet holds, per workload and metric, the values of every untraced
// run found in one directory.
type resultSet map[string]map[string][]float64

func loadResultSet(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.e2e.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.e2e.json result files", dir)
	}
	set := make(resultSet)
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			return nil, err
		}
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, nil
}

// verdict judges metric d from the values of a baseline set a and a
// candidate set b:
//
//	worse       b's median is worse than a's by more than the bound, and by
//	            more than either set's own spread;
//	unresolved  not worse, but a set's spread (interquartile distance over
//	            median) is wider than the bound, so "no change" cannot be read;
//	ok          otherwise.
func verdict(d metricDef, a, b []float64) (status string, change, spreadA, spreadB float64) {
	_, medA, _ := exclusiveQuartiles(a)
	_, medB, _ := exclusiveQuartiles(b)
	spreadA, spreadB = spread(a), spread(b)
	if medA == 0 && medB == 0 {
		return "ok", 0, 0, 0
	}
	// change is the worsening as a share of the baseline: positive is worse.
	change = (medB - medA) / math.Abs(medA)
	if d.Better == "higher" {
		change = -change
	}
	noise := max(spreadA, spreadB)
	if medA == 0 {
		noise = 0
	}
	switch {
	case change > d.Bound && change > noise:
		return "worse", change, spreadA, spreadB
	case noise > d.Bound:
		return "unresolved", change, spreadA, spreadB
	}
	return "ok", change, spreadA, spreadB
}

// compareDirs prints one row per bounded (metric, workload) pair present in
// both directories and reports whether any row is worse.
func compareDirs(w io.Writer, dirA, dirB string) (anyWorse bool, err error) {
	a, err := loadResultSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(dirB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tbound\tA median\tA spread\tB median\tB spread\tworsening\tverdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, d := range metricDefs {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if d.Tier == tierLayer || len(va) == 0 || len(vb) == 0 {
				continue
			}
			status, change, sa, sb := verdict(d, va, vb)
			counts[status]++
			anyWorse = anyWorse || status == "worse"
			_, ma, _ := exclusiveQuartiles(va)
			_, mb, _ := exclusiveQuartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.0f%%\t%.6g (n=%d)\t%.1f%%\t%.6g (n=%d)\t%.1f%%\t%+.1f%%\t%s\n",
				wl.Name, d.Name, d.Unit, d.Better, 100*d.Bound, ma, len(va), 100*sa, mb, len(vb), 100*sb, 100*change, status)
		}
	}
	if err := tw.Flush(); err != nil {
		return anyWorse, err
	}
	fmt.Fprintf(w, "ok %d, worse %d, unresolved %d\n", counts["ok"], counts["worse"], counts["unresolved"])
	return anyWorse, nil
}
