// Package sched implements every scheduling algorithm of the paper's
// experimental section (§6) plus the single-worker maximum re-use algorithm
// of §3:
//
//   - MaxReuse — the §3 memory layout on one worker (1 + μ + μ² buffers)
//   - Hom / HomI — the homogeneous algorithm (§4) run on the best virtual
//     homogeneous platform extracted from a heterogeneous one
//   - Het — the heterogeneous algorithm (§5): incremental resource selection
//     in eight variants, then execution following the selection order
//   - ORROML — overlapped round-robin with the optimized memory layout
//   - OMMOML — overlapped min-min (minimum completion time) assignment
//   - ODDOML — overlapped demand-driven dispatch
//   - BMM — Toledo's block matrix multiply baseline (equal-thirds layout)
//
// All schedulers produce a one-port trace via internal/sim and report the
// paper's measurements (makespan, enrolled workers, communication volume).
package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Instance is one matrix-product problem: C (r×s blocks) += A (r×t)·B (t×s).
type Instance struct {
	R, S, T int
}

// Validate rejects degenerate problems.
func (in Instance) Validate() error {
	if in.R <= 0 || in.S <= 0 || in.T <= 0 {
		return fmt.Errorf("sched: invalid instance %+v", in)
	}
	return nil
}

// Updates is the total number of block updates of the instance.
func (in Instance) Updates() int64 { return int64(in.R) * int64(in.S) * int64(in.T) }

// Result is one scheduled-and-executed run.
type Result struct {
	Algorithm string
	Trace     *trace.Trace
	Stats     trace.Stats
	Enrolled  []int  // worker indices that received work
	Note      string // algorithm-specific detail (chosen variant, virtual platform, …)
	plan      []sim.PlanOp
}

// Plan returns the executed master program with full data coordinates, ready
// for replay by the real execution engines. For schedulers that run on a
// subset platform (Hom, HomI) the worker indices are remapped to the original
// platform.
func (r *Result) Plan() []sim.PlanOp { return r.plan }

// Scheduler plans and executes an instance on a platform.
type Scheduler interface {
	Name() string
	Schedule(pl *platform.Platform, inst Instance) (*Result, error)
}

// Algorithms returns the paper's §6 algorithms, in the order the tools list
// them.
func Algorithms() []Scheduler {
	return []Scheduler{Hom{}, HomI{}, Het{}, ORROML{}, OMMOML{}, ODDOML{}, BMM{}}
}

// Lookup returns the scheduler among Algorithms and extra whose Name equals
// name up to case.
func Lookup(name string, extra ...Scheduler) (Scheduler, error) {
	all := append(Algorithms(), extra...)
	names := make([]string, len(all))
	for i, s := range all {
		if strings.EqualFold(s.Name(), name) {
			return s, nil
		}
		names[i] = s.Name()
	}
	return nil, fmt.Errorf("sched: unknown algorithm %q (have %s)", name, strings.Join(names, ", "))
}

// mus returns per-worker chunk edges under the overlapped layout, 0 meaning
// the worker cannot participate.
func mus(pl *platform.Platform) []int {
	out := make([]int, pl.P())
	for i, w := range pl.Workers {
		out[i] = platform.MuOverlap(w.M)
	}
	return out
}

// finish turns a finished simulation into a Result, validating the trace and
// checking the conservation law: every C block updated exactly T times.
func finish(name string, res *sim.Result, inst Instance, note string) (*Result, error) {
	if err := res.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	st := res.Trace.Stats()
	if st.Updates != inst.Updates() {
		return nil, fmt.Errorf("%s: executed %d block updates, want %d — scheduler lost or duplicated work",
			name, st.Updates, inst.Updates())
	}
	enrolled := map[int]bool{}
	for _, tr := range res.Trace.Transfers {
		enrolled[tr.Worker] = true
	}
	idx := make([]int, 0, len(enrolled))
	for w := range enrolled {
		idx = append(idx, w)
	}
	sort.Ints(idx)
	return &Result{Algorithm: name, Trace: res.Trace, Stats: st, Enrolled: idx, Note: note, plan: res.Plan}, nil
}

// feasibleWorkers returns the indices with a usable layout (μ > 0).
func feasibleWorkers(m []int) []int {
	var out []int
	for i, mu := range m {
		if mu > 0 {
			out = append(out, i)
		}
	}
	return out
}
