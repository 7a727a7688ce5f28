// Package coded plans proactive redundancy over a chunk plan: the extra
// work units the engine's k-of-n completion gate races against the plan's
// own (systematic) jobs, so a straggler is absorbed the moment any k of the
// n dispatched units finish — no heartbeat timeout on the completion path.
//
// Two modes, after the rateless/coded matrix-multiplication lines related to
// the paper. replicated duplicates the hottest chunk jobs onto the fastest
// other workers; every committed result is a verbatim systematic result, so
// C is always bitwise-identical to the unredundant run. coded adds systematic
// MDS parity units: groups of up to groupWidth compatible jobs are covered by
// generalized-Vandermonde parity combinations of their payloads, and a decode
// reconstructs only the group members that never returned — the
// straggler-free path still commits systematic results verbatim.
package coded

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// Mode selects the redundancy strategy.
type Mode string

const (
	ModeOff        Mode = "off"
	ModeReplicated Mode = "replicated"
	ModeCoded      Mode = "coded"
)

// ParseMode parses a mode name.
func ParseMode(s string) (Mode, error) {
	switch Mode(strings.ToLower(strings.TrimSpace(s))) {
	case ModeOff, "":
		return ModeOff, nil
	case ModeReplicated:
		return ModeReplicated, nil
	case ModeCoded:
		return ModeCoded, nil
	}
	return ModeOff, fmt.Errorf("coded: unknown redundancy mode %q (want off, replicated, or coded)", s)
}

// ParseSpec parses a command-line redundancy spec: "mode" or "mode:r",
// e.g. "replicated", "coded:2". r defaults to 1 for any enabled mode.
func ParseSpec(s string) (Mode, int, error) {
	name, rs, found := strings.Cut(s, ":")
	mode, err := ParseMode(name)
	if err != nil {
		return ModeOff, 0, err
	}
	r := 1
	if found {
		r, err = strconv.Atoi(strings.TrimSpace(rs))
		if err != nil || r < 0 {
			return ModeOff, 0, fmt.Errorf("coded: bad redundancy factor %q (want a non-negative integer)", rs)
		}
	}
	if mode == ModeOff {
		r = 0
	}
	return mode, r, nil
}

// Options configures Plan.
type Options struct {
	Mode Mode
	// R is the redundancy factor: replicated places R replicas fleet-wide per
	// wave (of the hottest jobs); coded emits up to R parity units per parity
	// group. ≤ 0 defaults to 1.
	R int
	// Estimator prices placement with live measurements; nil falls back to
	// uniform costs (placement by load alone).
	Estimator adapt.Estimator
}

// groupWidth caps a parity group at k members. Small groups keep the
// generalized-Vandermonde decode (nodes 1..r, r ≤ k) well-conditioned:
// TestReconstructConditioning decodes every missing subset from every
// sufficient set of parity rows, for every r ≤ groupWidth, within a
// relative error of 1e-12 of the payload's largest magnitude (measured
// worst: 4.4e-14 on the test's seed, 8.1e-14 over eight more seeds).
const groupWidth = 4

func (o *Options) r() int {
	if o.R <= 0 {
		return 1
	}
	return o.R
}

// jobCost prices one chunk job on worker w with the elastic policy's cost
// primitives (blocks moved over the job's life, block updates performed).
// A nil estimator degrades to a uniform-speed model, which still orders jobs
// by size and workers by load.
func jobCost(est adapt.Estimator, w int, j sim.PlanJob) float64 {
	blocks := 2 * j.Chunk.Blocks()
	var updates int64
	for _, p := range j.Panels {
		blocks += (p[1] - p[0]) * (j.Chunk.H + j.Chunk.W)
		updates += int64(p[1]-p[0]) * int64(j.Chunk.H) * int64(j.Chunk.W)
	}
	if est == nil {
		return float64(blocks) + float64(updates)
	}
	return est.JobCost(w, blocks, updates)
}

// Plan builds the redundancy the engine's k-of-n gate executes alongside
// plan: replicas in ModeReplicated, systematic MDS parity units in ModeCoded.
// a and c are the live matrices — parity payloads are pre-encoded here, at
// plan time, from the initial C (group members may commit, mutating C, before
// a parity unit even dispatches). workers is the backend's worker count.
// ModeOff returns nil: callers pass the nil straight to the engine
// (Options.Redundancy), which then runs a plain single-copy dispatch.
func Plan(t int, plan []sim.PlanOp, a, c *matrix.BlockMatrix, workers int, opts Options) (*engine.Redundancy, error) {
	if opts.Mode == ModeOff || opts.Mode == "" {
		return nil, nil
	}
	if opts.Mode != ModeReplicated && opts.Mode != ModeCoded {
		return nil, fmt.Errorf("coded: unknown redundancy mode %q", opts.Mode)
	}
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 || workers < 2 {
		// No jobs to protect, or nowhere to put a second copy: run with the
		// gate (for its arbitration and stats) but no planned units.
		return &engine.Redundancy{Mode: string(opts.Mode)}, nil
	}

	// Plan-time load model: each worker starts with the cost of its own
	// primary assignments, so redundant units land on the workers with slack.
	load := make([]float64, workers)
	for _, j := range jobs {
		if j.Worker >= 0 && j.Worker < workers {
			load[j.Worker] += jobCost(opts.Estimator, j.Worker, j)
		}
	}

	red := &engine.Redundancy{Mode: string(opts.Mode)}
	switch opts.Mode {
	case ModeReplicated:
		red.Units = planReplicas(jobs, workers, load, opts)
	case ModeCoded:
		red.Units, err = planParities(t, jobs, a, c, workers, load, opts)
		if err != nil {
			return nil, err
		}
		red.Reconstruct = Reconstruct
	}
	return red, nil
}

// planReplicas duplicates the R most expensive jobs (as priced on their own
// workers — the jobs whose straggling would hurt most) onto the cheapest
// other workers, greedily by plan-time load.
func planReplicas(jobs []sim.PlanJob, workers int, load []float64, opts Options) []engine.RedundantUnit {
	type hot struct {
		ji   int
		cost float64
	}
	hots := make([]hot, len(jobs))
	for ji, j := range jobs {
		hots[ji] = hot{ji: ji, cost: jobCost(opts.Estimator, j.Worker, j)}
	}
	// Descending cost, index order on ties — deterministic hotness ranking.
	for i := 1; i < len(hots); i++ {
		for k := i; k > 0 && hots[k].cost > hots[k-1].cost; k-- {
			hots[k], hots[k-1] = hots[k-1], hots[k]
		}
	}
	r := opts.r()
	if r > len(jobs) {
		r = len(jobs)
	}
	var units []engine.RedundantUnit
	for _, h := range hots[:r] {
		w := pickWorker(workers, load, func(w int) (float64, bool) {
			return jobCost(opts.Estimator, w, jobs[h.ji]), w != jobs[h.ji].Worker
		})
		if w < 0 {
			continue
		}
		load[w] += jobCost(opts.Estimator, w, jobs[h.ji])
		units = append(units, engine.RedundantUnit{Worker: w, Job: h.ji})
	}
	return units
}

// pickWorker returns the eligible worker minimizing load + cost (lowest index
// on ties), or -1 when none is eligible.
func pickWorker(workers int, load []float64, price func(w int) (cost float64, ok bool)) int {
	best, bestEnd := -1, 0.0
	for w := 0; w < workers; w++ {
		cost, ok := price(w)
		if !ok {
			continue
		}
		if end := load[w] + cost; best < 0 || end < bestEnd {
			best, bestEnd = w, end
		}
	}
	return best
}

// planParities groups compatible jobs (same chunk shape, same B columns, same
// installment schedule — the geometry that makes the weighted-sum algebra
// close) into parity groups of at most groupWidth members, and emits up to R
// pre-encoded parity units per group, placed on the least-loaded workers that
// host no member of the group.
func planParities(t int, jobs []sim.PlanJob, a, c *matrix.BlockMatrix, workers int, load []float64, opts Options) ([]engine.RedundantUnit, error) {
	sig := func(j sim.PlanJob) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%dx%d@c%d", j.Chunk.H, j.Chunk.W, j.Chunk.Col0)
		for _, p := range j.Panels {
			fmt.Fprintf(&sb, ":%d-%d", p[0], p[1])
		}
		return sb.String()
	}
	bySig := make(map[string][]int)
	var order []string
	for ji, j := range jobs {
		s := sig(j)
		if _, seen := bySig[s]; !seen {
			order = append(order, s)
		}
		bySig[s] = append(bySig[s], ji)
	}

	var units []engine.RedundantUnit
	gid := 0
	for _, s := range order {
		members := bySig[s]
		for g0 := 0; g0 < len(members); g0 += groupWidth {
			g1 := g0 + groupWidth
			if g1 > len(members) {
				g1 = len(members)
			}
			group := members[g0:g1]
			r := opts.r()
			if r > len(group) {
				r = len(group) // more parities than members can never decode more
			}
			hostsMember := make(map[int]bool, len(group))
			for _, ji := range group {
				hostsMember[jobs[ji].Worker] = true
			}
			for p := 1; p <= r; p++ {
				u, err := encodeParity(t, jobs, group, gid, p, a, c)
				if err != nil {
					return nil, err
				}
				w := pickWorker(workers, load, func(w int) (float64, bool) {
					return jobCost(opts.Estimator, w, jobs[group[0]]), !hostsMember[w]
				})
				if w < 0 {
					// Every worker hosts a member; fall back to any worker.
					w = pickWorker(workers, load, func(w int) (float64, bool) {
						return jobCost(opts.Estimator, w, jobs[group[0]]), true
					})
				}
				if w < 0 {
					continue
				}
				load[w] += jobCost(opts.Estimator, w, jobs[group[0]])
				u.Worker = w
				units = append(units, u)
			}
			gid++
		}
	}
	return units, nil
}

// encodeParity builds parity unit p (1-based) of one group: coefficients
// coef_i = p^i over member slots i, the C seed Σ coef_i·C_i pre-encoded from
// the current C, and the A seeds Σ coef_i·A_i per installment. Distinct
// evaluation nodes p make any square submatrix of the coefficient matrix
// nonsingular (generalized Vandermonde), so any #missing ≤ #parities decode
// is solvable.
func encodeParity(t int, jobs []sim.PlanJob, group []int, gid, p int, a, c *matrix.BlockMatrix) (engine.RedundantUnit, error) {
	first := jobs[group[0]]
	ch := first.Chunk
	coeffs := make([]float64, len(group))
	node := float64(p)
	pow := 1.0
	for i := range coeffs {
		coeffs[i] = pow
		pow *= node
	}

	cSeed := zeroBlocks(ch.Blocks(), c.Q)
	for s, ji := range group {
		axpyChunk(cSeed, coeffs[s], c, jobs[ji].Chunk)
	}

	aSeeds := make([][]*matrix.Block, len(first.Panels))
	for pi, pr := range first.Panels {
		d := pr[1] - pr[0]
		enc := zeroBlocks(ch.H*d, a.Q)
		for s, ji := range group {
			mch := jobs[ji].Chunk
			idx := 0
			for i := mch.Row0; i < mch.Row0+mch.H; i++ {
				for k := pr[0]; k < pr[1]; k++ {
					axpyBlock(enc[idx], coeffs[s], a.Block(i, k))
					idx++
				}
			}
		}
		aSeeds[pi] = enc
	}

	return engine.RedundantUnit{
		Job:     -1,
		Group:   gid,
		Members: append([]int(nil), group...),
		Coeffs:  coeffs,
		Chunk:   ch,
		Panels:  append([][2]int(nil), first.Panels...),
		CSeed:   cSeed,
		ASeeds:  aSeeds,
	}, nil
}

func zeroBlocks(n, q int) []*matrix.Block {
	out := make([]*matrix.Block, n)
	for i := range out {
		out[i] = matrix.NewBlock(q)
	}
	return out
}

// axpyBlock accumulates dst += s·src elementwise.
func axpyBlock(dst *matrix.Block, s float64, src *matrix.Block) {
	for i, v := range src.Data {
		dst.Data[i] += s * v
	}
}

// axpyChunk accumulates dst += s·(chunk ch of m), dst row-major over ch.
func axpyChunk(dst []*matrix.Block, s float64, m *matrix.BlockMatrix, ch matrix.Chunk) {
	idx := 0
	for i := ch.Row0; i < ch.Row0+ch.H; i++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			axpyBlock(dst[idx], s, m.Block(i, j))
			idx++
		}
	}
}
