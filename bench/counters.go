package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// counters is one scrape of the program's own Prometheus exposition, keyed
// by series name without labels: labelled children of one family are summed
// (per-worker byte counters), except histogram buckets and state-labelled
// families, which keep their label value after a '|'.
type counters map[string]float64

func scrape() counters {
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	c := counters{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, label := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if q := strings.IndexByte(series[i:], '"'); q >= 0 {
				label = strings.TrimSuffix(series[i+q+1:], "\"}")
			}
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_finished_total") {
			name += "|" + label
		}
		c[name] += v
	}
	return c
}

// sub returns the per-series increase from before to c.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// histQuantile estimates quantile p of histogram family name from its
// cumulative le-buckets, interpolating linearly inside the bucket. obs
// buckets double in width, so the estimate is good to a factor of two.
func (c counters) histQuantile(name string, p float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket|"
	for k, v := range c {
		if le, ok := strings.CutPrefix(k, prefix); ok && le != "+Inf" {
			if f, err := strconv.ParseFloat(le, 64); err == nil {
				bs = append(bs, bucket{f, v})
			}
		}
	}
	total := c[name+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	target := p * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if b.cum == prevCum {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(target-prevCum)/(b.cum-prevCum)
		}
		prevLE, prevCum = b.le, b.cum
	}
	return bs[len(bs)-1].le
}

// procSample is the process-wide runtime state the per-job allocation and
// GC metrics are differences of.
type procSample struct {
	totalAlloc, mallocs uint64
	gcPauseNs           uint64
	gcCPUSeconds        float64
}

func (p procSample) sub(q procSample) procSample {
	return procSample{p.totalAlloc - q.totalAlloc, p.mallocs - q.mallocs, p.gcPauseNs - q.gcPauseNs, p.gcCPUSeconds - q.gcCPUSeconds}
}

func (p procSample) add(q procSample) procSample {
	return procSample{p.totalAlloc + q.totalAlloc, p.mallocs + q.mallocs, p.gcPauseNs + q.gcPauseNs, p.gcCPUSeconds + q.gcCPUSeconds}
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	p := procSample{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPUSeconds = s[0].Value.Float64()
	}
	return p
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
