package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
)

// panelDigests is the content identity of job's operands on set: A row
// panels then B column panels.
func panelDigests(g *generator, set *opSet, job int) []cache.Digest {
	g.freshen(set, job)
	if set.a == nil {
		return cache.PanelsForJob(g.sharedOperands()[g.sharedIndex(job)], set.b).Digests()
	}
	return cache.PanelsForJob(set.a, set.b).Digests()
}

func TestSameSeedSameLoad(t *testing.T) {
	for _, wl := range workloads {
		g1, g2, other := newGenerator(wl, 7), newGenerator(wl, 7), newGenerator(wl, 8)
		s1, s2, so := g1.newSet(0), g2.newSet(0), other.newSet(0)
		if s1.c.Rows != wl.inst.R || s1.c.Cols != wl.inst.S || s1.b.Rows != wl.inst.T || s1.c.Q != wl.q {
			t.Errorf("%s: set shape %dx%d (t=%d, q=%d) does not match %+v q=%d", wl.name, s1.c.Rows, s1.c.Cols, s1.b.Rows, s1.c.Q, wl.inst, wl.q)
		}
		if s1.c.MaxAbsDiff(s2.c) != 0 {
			t.Errorf("%s: same seed generated different C", wl.name)
		}
		if s1.c.MaxAbsDiff(so.c) == 0 {
			t.Errorf("%s: different seeds generated the same C", wl.name)
		}
		seen := map[cache.Digest]int{}
		for job := 0; job < 4; job++ {
			d1, d2 := panelDigests(g1, s1, job), panelDigests(g2, s2, job)
			if !reflect.DeepEqual(d1, d2) {
				t.Errorf("%s job %d: same seed, different panel digests", wl.name, job)
			}
			if reflect.DeepEqual(d1, panelDigests(other, so, job)) {
				t.Errorf("%s job %d: different seeds, same panel digests", wl.name, job)
			}
			// Unshared panels must be new content on every job, or a worker
			// cache could hit on them; shared A panels must repeat.
			for i, d := range d1 {
				sharedPanel := wl.sharedA > 0 && i < wl.inst.R
				if prev, dup := seen[d]; dup && !sharedPanel {
					t.Errorf("%s: job %d repeats a panel of job %d", wl.name, job, prev)
				}
				seen[d] = job
			}
		}
	}
}

func TestArrivalSchedule(t *testing.T) {
	wl, _ := workloadByName("shared-open")
	windows := []time.Duration{3 * time.Second, 4 * time.Second, 4 * time.Second}
	due1, win1, err := newGenerator(wl, 7).arrivals(windows)
	if err != nil {
		t.Fatal(err)
	}
	due2, _, _ := newGenerator(wl, 7).arrivals(windows)
	if !reflect.DeepEqual(due1, due2) {
		t.Error("same seed, different arrival times")
	}
	due3, _, _ := newGenerator(wl, 8).arrivals(windows)
	if reflect.DeepEqual(due1, due3) {
		t.Error("different seeds, same arrival times")
	}
	// Every window holds exactly rate·length arrivals, inside its bounds and
	// in order, whatever the seed.
	counts := make([]int, len(windows))
	var start time.Duration
	starts := make([]time.Duration, len(windows))
	for k, d := range windows {
		starts[k] = start
		start += d
	}
	for i, at := range due1 {
		k := win1[i]
		counts[k]++
		if at < starts[k] || at >= starts[k]+windows[k] {
			t.Errorf("arrival %d at %v lies outside window %d", i, at, k)
		}
		if i > 0 && at < due1[i-1] {
			t.Errorf("arrival %d at %v precedes arrival %d", i, at, i-1)
		}
	}
	for k, d := range windows {
		if want := int(math.Round(wl.rate * d.Seconds())); counts[k] != want {
			t.Errorf("window %d holds %d arrivals, want %d", k, counts[k], want)
		}
	}
}

// TestQuotedFigures pins the sizes the workload descriptions quote.
func TestQuotedFigures(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.05*want }
	for _, tc := range []struct {
		name          string
		updates       int64
		gflop, cBytes float64
	}{
		{"control-small", 216, 0.0018, 110592}, // ~2 MFLOP
		{"compute-large", 4096, 4.2, 13.1e6},   // 4096 updates, ~4.2 GFLOP
		{"transfer-thin", 576, 0.59, 29.5e6},   // rank-1 update, ~30 MB of C
		{"shared-open", 512, 0.52, 3.3e6},      // A is 16x8 blocks = 6.6 MB
	} {
		wl, ok := workloadByName(tc.name)
		if !ok {
			t.Fatalf("no workload %s", tc.name)
		}
		if got := wl.inst.Updates(); got != tc.updates {
			t.Errorf("%s: %d block updates, want %d", tc.name, got, tc.updates)
		}
		if got := wl.flops() / 1e9; !near(got, tc.gflop) {
			t.Errorf("%s: %.4g GFLOP per job, want ~%.4g", tc.name, got, tc.gflop)
		}
		if got := float64(wl.inst.R*wl.inst.S) * 8 * float64(wl.q*wl.q); !near(got, tc.cBytes) {
			t.Errorf("%s: C is %.4g bytes, want ~%.4g", tc.name, got, tc.cBytes)
		}
	}
}
