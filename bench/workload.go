package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/load"
	"repro/internal/matrix"
)

// opSet is one client's operand buffers. Job i's operands are the set's
// matrices stamped with i (see generator.freshen): the buffers are reused,
// the content — and so every panel digest — is fresh per job.
type opSet struct {
	a, b, c *matrix.BlockMatrix
}

// generator derives everything a workload feeds the stack from one seed:
// operand sets, the installed A operands, per-job stamps and, for the open
// loop, the arrival schedule. The program under test sees only its output.
type generator struct {
	wl   workload
	seed int64
}

func newGenerator(wl workload, seed int64) *generator {
	return &generator{wl: wl, seed: seed}
}

// subSeed derives the seed of item k of one numbered part of the workload
// (1: operand sets, 2: installed operands, 3: arrival windows).
func (g *generator) subSeed(part, k int) int64 {
	return g.seed*1_000_003 + int64(part)*10_007 + int64(k)
}

func (g *generator) rng(part, k int) *rand.Rand {
	return rand.New(rand.NewSource(g.subSeed(part, k)))
}

// newSet builds operand set k: A (unless the workload installs shared As), B
// and C filled uniformly in [-1, 1).
func (g *generator) newSet(k int) *opSet {
	in, q := g.wl.inst, g.wl.q
	rng := g.rng(1, k)
	s := &opSet{b: matrix.NewBlockMatrix(in.T, in.S, q), c: matrix.NewBlockMatrix(in.R, in.S, q)}
	if g.wl.sharedA == 0 {
		s.a = matrix.NewBlockMatrix(in.R, in.T, q)
		s.a.FillRandom(rng)
	}
	s.b.FillRandom(rng)
	s.c.FillRandom(rng)
	return s
}

// sharedOperands builds the A matrices a shared workload installs once.
func (g *generator) sharedOperands() []*matrix.BlockMatrix {
	out := make([]*matrix.BlockMatrix, g.wl.sharedA)
	for k := range out {
		out[k] = matrix.NewBlockMatrix(g.wl.inst.R, g.wl.inst.T, g.wl.q)
		out[k].FillRandom(g.rng(2, k))
	}
	return out
}

// sharedIndex picks which installed A job i multiplies.
func (g *generator) sharedIndex(job int) int {
	return int(splitmix(uint64(g.seed), uint64(job), 1<<40) % uint64(g.wl.sharedA))
}

// freshen turns s into job's operands: one element of every A row panel and
// every B column panel is overwritten with a value derived from (seed, job,
// panel), so each panel's content digest is new and a worker cache can never
// hit on an unshared operand, whatever its size. C is left as the previous
// job on this set left it — fresh content by construction.
func (g *generator) freshen(s *opSet, job int) {
	if s.a != nil {
		for i := 0; i < s.a.Rows; i++ {
			s.a.Block(i, 0).Data[0] = stamp(g.seed, job, i)
		}
	}
	for j := 0; j < s.b.Cols; j++ {
		s.b.Block(0, j).Data[0] = stamp(g.seed, job, -1-j)
	}
}

// stamp maps (seed, job, panel) to a value in [-1, 1).
func stamp(seed int64, job, panel int) float64 {
	return float64(splitmix(uint64(seed), uint64(job), uint64(int64(panel)))>>11)/(1<<52) - 1
}

// splitmix hashes three words (SplitMix64 finalizer over their mix).
func splitmix(a, b, c uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// arrivals builds the open-loop schedule: one window per entry of windows,
// back to back, each holding exactly round(rate·window) arrivals whose gaps
// come from load.Poisson. Pinning the count per window (a Poisson process
// conditioned on its count) keeps the offered load identical across seeds,
// so goodput and latency differences between runs are the system's, not the
// draw's. It returns each arrival's due time and the window it belongs to.
func (g *generator) arrivals(windows []time.Duration) (due []time.Duration, window []int, err error) {
	var offset time.Duration
	for k, d := range windows {
		n := int(g.wl.rate*d.Seconds() + 0.5)
		if n < 1 {
			return nil, nil, fmt.Errorf("window %d of %v holds no arrival at %.3g jobs/s", k, d, g.wl.rate)
		}
		// n+1 gaps: the first n partial sums, scaled by the last, are n
		// arrivals conditioned to fall inside the window.
		jobs, err := load.Spec{
			Seed: g.subSeed(3, k), N: n + 1, Arrivals: load.Poisson(g.wl.rate),
			Sizes: []load.SizeClass{{Name: g.wl.name, Inst: g.wl.inst, Q: g.wl.q, Weight: 1}},
		}.Generate()
		if err != nil {
			return nil, nil, err
		}
		scale := float64(d) / float64(jobs[n].At)
		for _, j := range jobs[:n] {
			due = append(due, offset+time.Duration(float64(j.At)*scale))
			window = append(window, k)
		}
		offset += d
	}
	return due, window, nil
}
