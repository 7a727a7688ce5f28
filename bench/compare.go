package main

import (
	"fmt"
	"io"
	"math"
)

// verdict compares one end-to-end metric's two measurements under its bound.
// The change is (b − a) ÷ a, signed so that positive is worse. When either
// side's own spread (IQR ÷ median) exceeds the bound the runs cannot resolve
// a change of that size, whatever the medians say.
func verdict(d metricDecl, a, b measurement) (v string, ratio float64) {
	ratio = b.Median / a.Median
	spread := math.Max(a.IQR/math.Abs(a.Median), b.IQR/math.Abs(b.Median))
	worse := ratio - 1
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.IsNaN(ratio) || math.IsNaN(spread) || spread > d.Bound:
		return "unresolved", ratio
	case worse > d.Bound:
		return "worse", ratio
	case worse < -d.Bound:
		return "better", ratio
	}
	return "unchanged", ratio
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// result files and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	fa, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]*workloadResult{}
	for _, r := range fb.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "A = %s (seed %d, %s)\nB = %s (seed %d, %s)\n", pathA, fa.Host.Seed, fa.Host.CPU, pathB, fb.Host.Seed, fb.Host.CPU)
	fmt.Fprintf(w, "%-15s %-18s %12s %10s %12s %10s %9s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound", "verdict")
	for _, ra := range fa.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, ra.Workload)
		}
		for _, d := range endToEnd {
			a, okA := ra.EndToEnd[d.Name]
			b, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				return false, fmt.Errorf("workload %s: metric %s missing from a result file", ra.Workload, d.Name)
			}
			v, ratio := verdict(d, a, b)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-18s %12.6g %10.3g %12.6g %10.3g %9.4f %6.2f  %s\n",
				ra.Workload, d.Name, a.Median, a.IQR, b.Median, b.IQR, ratio, d.Bound, v)
		}
	}
	return anyWorse, nil
}
