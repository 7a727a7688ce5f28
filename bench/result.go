package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// measurement is one metric's value: the median of its per-repetition
// samples and their interquartile range.
type measurement struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	IQR     float64   `json:"iqr"`
	Samples []float64 `json:"samples"`
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Workload       string                 `json:"workload"`
	Attempted      int                    `json:"attempted"` // measured jobs plus verification jobs
	Failed         int                    `json:"failed"`    // failed, refused, timed out or bitwise-wrong
	Incorrect      int                    `json:"incorrect"` // of Failed: C differed from the oracle
	LatencySamples int                    `json:"latency_samples"`
	EndToEnd       map[string]measurement `json:"end_to_end"`
	PerLayer       map[string]measurement `json:"per_layer"`
	// Flags lists everything that makes the command exit non-zero (wrong C,
	// failed job, leaked goroutine, violated regime check). Notes are
	// measured oddities reported as they are, such as a negative self-time.
	Flags []string `json:"flags,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

func newWorkloadResult(wl workload) *workloadResult {
	return &workloadResult{Workload: wl.name, EndToEnd: map[string]measurement{}, PerLayer: map[string]measurement{}}
}

func summarize(unit string, samples []float64) measurement {
	m := measurement{Unit: unit, Samples: samples}
	if len(samples) > 0 {
		m.Median = stats.Quantile(samples, 0.5)
		m.IQR = stats.Quantile(samples, 0.75) - stats.Quantile(samples, 0.25)
	}
	return m
}

func (r *workloadResult) setEndToEnd(name string, samples []float64) {
	d, ok := declOf(endToEnd, name)
	if !ok {
		panic("bench: undeclared end-to-end metric " + name)
	}
	r.EndToEnd[name] = summarize(d.Unit, samples)
}

func (r *workloadResult) setLayer(name string, samples ...float64) {
	d, ok := declOf(perLayer, name)
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	r.PerLayer[name] = summarize(d.Unit, samples)
}

func (r *workloadResult) layer(name string) float64 { return r.PerLayer[name].Median }

func (r *workloadResult) flag(format string, args ...any) {
	r.Flags = append(r.Flags, fmt.Sprintf(format, args...))
}

func (r *workloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// hostInfo is the metadata a baseline is only comparable under.
type hostInfo struct {
	CPU     string  `json:"cpu"`
	NumCPU  int     `json:"nproc"`
	Go      string  `json:"go"`
	Kernel  string  `json:"kernel"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Reps    int     `json:"reps"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

func newResultFile(opt options) *resultFile {
	return &resultFile{Host: hostInfo{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), Go: runtime.Version(), Kernel: kernel.Name(),
		Seed: opt.seed, Seconds: opt.seconds, Reps: opt.reps(),
	}}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
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

// print renders every metric the run measured, by name with its unit.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d jobs attempted, %d failed, %d latency samples\n",
		r.Workload, r.Attempted, r.Failed, r.LatencySamples)
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s iqr %.3g (n=%d)\n", d.Name, m.Median, m.Unit, m.IQR, len(m.Samples))
		}
	}
	for _, d := range perLayer {
		if m, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s", d.Name, m.Median, m.Unit)
			if len(m.Samples) > 1 {
				fmt.Fprintf(w, " iqr %.3g (n=%d)", m.IQR, len(m.Samples))
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}

// driverLine renders the one-line JSON object the benchmark driver reads:
// the end-to-end metrics of an untraced run, the per-layer ones of a traced
// run.
func (r *workloadResult) driverLine(traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, decls := r.EndToEnd, endToEnd
	if traced {
		src, decls = r.PerLayer, perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Incorrect == 0 && len(r.Flags) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range decls {
		m, ok := src[d.Name]
		if !ok || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{m.Median, m.Unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}
