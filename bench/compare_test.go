package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// resultWith builds a one-workload result file whose end-to-end metrics all
// sit at median 100 with the given IQR, except the overrides.
func resultWith(t *testing.T, dir, name string, iqr float64, override map[string]float64) string {
	t.Helper()
	res := newWorkloadResult(workloads[0])
	for _, d := range endToEnd {
		median := 100.0
		if v, ok := override[d.Name]; ok {
			median = v
		}
		res.EndToEnd[d.Name] = measurement{Unit: d.Unit, Median: median, IQR: iqr, Samples: []float64{median}}
	}
	path := filepath.Join(dir, name)
	if err := (&resultFile{Workloads: []*workloadResult{res}}).write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := resultWith(t, dir, "a.json", 1, nil)
	// Medians are placed relative to each metric's declared bound, so the
	// cases survive a re-measured bound.
	at := func(metric string, boundsAway float64) map[string]float64 {
		d, _ := declOf(endToEnd, metric)
		return map[string]float64{metric: 100 * (1 + boundsAway*d.Bound)}
	}
	for _, tc := range []struct {
		name     string
		iqr      float64
		override map[string]float64
		metric   string
		want     string
		worse    bool
	}{
		{"same", 1, nil, "jobs_per_s", "unchanged", false},
		{"within-bound", 1, at("job_p50_ms", 0.8), "job_p50_ms", "unchanged", false},
		{"slower-latency", 1, at("job_p50_ms", 1.2), "job_p50_ms", "worse", true},
		{"faster-latency", 1, at("job_p50_ms", -1.2), "job_p50_ms", "better", false},
		{"lower-throughput", 1, at("jobs_per_s", -1.2), "jobs_per_s", "worse", true},
		{"higher-throughput", 1, at("jobs_per_s", 1.2), "jobs_per_s", "better", false},
		{"too-noisy", 40, at("jobs_per_s", -2), "jobs_per_s", "unresolved", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := resultWith(t, dir, tc.name+".json", tc.iqr, tc.override)
			var out bytes.Buffer
			worse, err := compareFiles(&out, base, other)
			if err != nil {
				t.Fatal(err)
			}
			if worse != tc.worse {
				t.Errorf("any worse = %v, want %v\n%s", worse, tc.worse, out.String())
			}
			rows := 0
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 2 || f[0] != workloads[0].name {
					continue
				}
				rows++
				if f[1] == tc.metric && f[len(f)-1] != tc.want {
					t.Errorf("%s: verdict %s, want %s", tc.metric, f[len(f)-1], tc.want)
				}
			}
			if rows != len(endToEnd) {
				t.Errorf("%d rows, want one per end-to-end metric (%d)", rows, len(endToEnd))
			}
		})
	}
}

func TestCompareRejectsMismatchedFiles(t *testing.T) {
	dir := t.TempDir()
	a := resultWith(t, dir, "a.json", 1, nil)
	empty := filepath.Join(dir, "empty.json")
	if err := (&resultFile{}).write(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, a, empty); err == nil {
		t.Error("comparing against a file without the workload succeeded")
	}
}
