package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram keeps the declaration the driver reads and
// the tables the program measures by from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json {%s: %s}, code {%s: %s}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestSmoke runs every workload's whole protocol in -short mode, traced pass
// included, and validates what comes out: every declared metric present under
// a well-formed name with its declared unit, no NaN, nothing flagged, and a
// driver line for both trace modes.
func TestSmoke(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(context.Background(), wl, options{
				seed: defaultSeed, seconds: 2, traced: true, short: true, resultsDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Flags {
				t.Errorf("flagged: %s", f)
			}
			if res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%d of %d jobs failed", res.Failed, res.Attempted)
			}
			check := func(decls []metricDecl, got map[string]measurement) {
				if len(got) != len(decls) {
					t.Errorf("%d metrics measured, %d declared", len(got), len(decls))
				}
				for _, d := range decls {
					m, ok := got[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case !nameOK.MatchString(d.Name):
						t.Errorf("metric name %q is malformed", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Median) || math.IsInf(m.Median, 0) || len(m.Samples) == 0:
						t.Errorf("metric %s = %v from %d samples", d.Name, m.Median, len(m.Samples))
					}
				}
			}
			check(endToEnd, res.EndToEnd)
			check(perLayer, res.PerLayer)
			for _, d := range endToEnd {
				if res.EndToEnd[d.Name].Median <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, res.EndToEnd[d.Name].Median)
				}
			}
			// A negative ladder difference is reported as measured, with a note.
			for _, name := range []string{"net.self_ms", "serve.self_ms", "proto.self_ms"} {
				if res.layer(name) < 0 && !strings.Contains(strings.Join(res.Notes, "\n"), name) {
					t.Errorf("%s = %v is negative but not noted", name, res.layer(name))
				}
			}
			for _, traced := range []bool{false, true} {
				line, err := res.driverLine(traced)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatalf("driver line is not JSON: %v", err)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if !parsed.Correct || parsed.Attempted < 1 || len(parsed.Metrics) != want {
					t.Errorf("driver line (traced=%v): correct=%v attempted=%d, %d metrics (want %d)",
						traced, parsed.Correct, parsed.Attempted, len(parsed.Metrics), want)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+wl.name+".json")); err != nil {
				t.Errorf("traced pass wrote no spans: %v", err)
			}
		})
	}
}
