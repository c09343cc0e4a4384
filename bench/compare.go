package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// gate is one end-to-end metric's regression rule from BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadGates reads the gated metrics from BENCHMARK.json in the working
// directory (run.sh runs the benchmark from the repository root).
func loadGates() ([]gate, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one workload's values of a metric across sets, looking in
// the gated and the ungated numbers alike.
func series(sets [][]*result, workload, metric string) []float64 {
	var values []float64
	for _, set := range sets {
		for _, r := range set {
			if r.Workload != workload {
				continue
			}
			if m, ok := r.Metrics[metric]; ok {
				values = append(values, m.Value)
			} else if m, ok := r.Ungated[metric]; ok {
				values = append(values, m.Value)
			}
		}
	}
	return values
}

// failedShare is a workload's failed ops over its attempted ops, all sets
// and both sides together.
func failedShare(sets [][]*result, workload string) float64 {
	failed, attempted := 0, 0
	for _, set := range sets {
		for _, r := range set {
			if r.Workload == workload {
				failed, attempted = failed+r.Failed, attempted+r.Attempted
			}
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// verdict compares a metric's old and new values under its gate:
// unresolved when either side's own spread is wider than the bound (the
// benchmark cannot tell a change of that size from noise), regressed when
// the new median is worse than the old by more than the bound, else ok. A
// side with a single value has no spread to judge and counts as resolved.
func verdict(g gate, old, new []float64) (string, float64) {
	mo, mn := median(old), median(new)
	worse := (mn - mo) / mo
	if g.Better == "higher" {
		worse = (mo - mn) / mo
	}
	for _, side := range [][]float64{old, new} {
		if len(side) >= 2 && quartileSpread(side) > g.Bound {
			return "unresolved", worse
		}
	}
	if worse > g.Bound {
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints one row per (workload, gated metric), then the ungated
// numbers for information, and reports whether nothing regressed and no
// workload's failed share rose.
func compareFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	gates, err := loadGates()
	if err != nil {
		return false, err
	}
	oldFile, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newFile, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range workloads {
		for _, g := range gates {
			ov, nv := series(oldFile.Sets, w.name, g.Name), series(newFile.Sets, w.name, g.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v, worse := verdict(g, ov, nv)
			fmt.Fprintf(out, "%-20s %-26s %-10s old %.6g new %.6g %s (%+.1f%% worse, bound %.0f%%)\n",
				w.name, g.Name, v, median(ov), median(nv), g.Unit, worse*100, g.Bound*100)
			if v == "regressed" {
				ok = false
			}
		}
		for _, d := range ungated {
			ov, nv := series(oldFile.Sets, w.name, d.name), series(newFile.Sets, w.name, d.name)
			if len(ov) > 0 && len(nv) > 0 && d.name != "failed_share" { // judged below, over all ops
				fmt.Fprintf(out, "%-20s %-26s %-10s old %.6g new %.6g %s\n", w.name, d.name, "info", median(ov), median(nv), d.unit)
			}
		}
		if of, nf := failedShare(oldFile.Sets, w.name), failedShare(newFile.Sets, w.name); nf > of {
			fmt.Fprintf(out, "%-20s %-26s %-10s old %.6g new %.6g\n", w.name, "failed_share", "regressed", of, nf)
			ok = false
		}
	}
	return ok, nil
}

// compareSets is -repeat's self-comparison: the sets are the same code, so
// every gated metric's spread across them must stay within its bound. A
// metric that cannot do that is not fit to gate anything.
func compareSets(out io.Writer, sets [][]*result) bool {
	gates, err := loadGates()
	if err != nil {
		fmt.Fprintln(out, "bench:", err)
		return false
	}
	ok := true
	for _, w := range workloads {
		for _, g := range gates {
			xs := series(sets, w.name, g.Name)
			if len(xs) < 2 {
				continue
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread, v := (hi-lo)/median(xs), "ok"
			if spread > g.Bound {
				v, ok = "unresolved", false
			}
			fmt.Fprintf(out, "%-20s %-26s %-10s median %.6g %s, range %.1f%% of it over %d sets (bound %.0f%%)\n",
				w.name, g.Name, v, median(xs), g.Unit, spread*100, len(xs), g.Bound*100)
		}
	}
	return ok
}
