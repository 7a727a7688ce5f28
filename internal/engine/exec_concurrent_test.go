package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildMatrices returns random A, B, C and the serial reference C + A·B.
func buildMatrices(t *testing.T, inst sched.Instance, q int, seed int64) (a, b, c, want *matrix.BlockMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a = matrix.NewBlockMatrix(inst.R, inst.T, q)
	b = matrix.NewBlockMatrix(inst.T, inst.S, q)
	c = matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want = c.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		t.Fatal(err)
	}
	return a, b, c, want
}

// TestPipelinedMatchesSequentialBitwise is the core guarantee of the
// concurrent executor: for every scheduler, the pipelined run's C is
// bitwise-identical to the sequential executor's (same chunk snapshots, same
// per-chunk installment order, same kernel), which in turn tracks the serial
// reference within floating-point reordering tolerance.
func TestPipelinedMatchesSequentialBitwise(t *testing.T) {
	inst := sched.Instance{R: 7, S: 11, T: 5}
	pl := smallPlatform()
	for _, s := range []sched.Scheduler{sched.Het{}, sched.ODDOML{}, sched.BMM{}, sched.Hom{}} {
		res, err := s.Schedule(pl, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		plan := res.Plan()
		q := 4
		a, b, cSeq, want := buildMatrices(t, inst, q, 17)
		_, _, cPipe, _ := buildMatrices(t, inst, q, 17)

		if err := Run(Config{Workers: pl.P(), T: inst.T}, plan, a, b, cSeq); err != nil {
			t.Fatalf("%s: sequential: %v", s.Name(), err)
		}
		if err := Run(Config{Workers: pl.P(), T: inst.T, Pipelined: true}, plan, a, b, cPipe); err != nil {
			t.Fatalf("%s: pipelined: %v", s.Name(), err)
		}
		if d := cPipe.MaxAbsDiff(cSeq); d != 0 {
			t.Errorf("%s: pipelined C deviates from sequential C by %g (want bitwise equality)", s.Name(), d)
		}
		if d := cPipe.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("%s: pipelined C deviates from serial reference by %g", s.Name(), d)
		}
	}
}

// TestPipelinedFailsOverDeadWorker kills each worker in turn at several
// points and checks the concurrent replay still completes a correct
// product. The faulty backend needs no extra locking: the core drives each
// worker from exactly one goroutine, and only the victim's state is counted.
func TestPipelinedFailsOverDeadWorker(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	pl := smallPlatform()
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 3
	for victim := 0; victim < pl.P(); victim++ {
		for _, deathAt := range []int{0, 1, 3, 7} {
			a, b, c, want := buildMatrices(t, inst, q, 11)
			be := newFaultyBackend(pl.P(), victim, deathAt)
			if err := Dispatch(context.Background(), inst.T, plan, a, b, c, be, Options{}); err != nil {
				t.Fatalf("victim %d death-at %d: %v", victim, deathAt, err)
			}
			if d := c.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("victim %d death-at %d: C wrong by %g", victim, deathAt, d)
			}
		}
	}
}

// TestPipelinedRejectsOverlappingChunks: concurrent write-back relies on
// disjoint chunks, so a plan covering a C block twice must be refused up
// front rather than raced on.
func TestPipelinedRejectsOverlappingChunks(t *testing.T) {
	q := 2
	a := matrix.NewBlockMatrix(2, 2, q)
	b := matrix.NewBlockMatrix(2, 2, q)
	c := matrix.NewBlockMatrix(2, 2, q)
	ch := matrix.Chunk{Row0: 0, Col0: 0, H: 1, W: 1}
	plan := []sim.PlanOp{
		{Worker: 0, Kind: trace.SendC, Chunk: ch},
		{Worker: 0, Kind: trace.SendAB, Chunk: ch, K0: 0, K1: 2},
		{Worker: 0, Kind: trace.RecvC, Chunk: ch},
		{Worker: 1, Kind: trace.SendC, Chunk: ch},
		{Worker: 1, Kind: trace.SendAB, Chunk: ch, K0: 0, K1: 2},
		{Worker: 1, Kind: trace.RecvC, Chunk: ch},
	}
	be := newFaultyBackend(2, 0, 1<<30)
	if err := Dispatch(context.Background(), 2, plan, a, b, c, be, Options{}); err == nil {
		t.Fatal("overlapping chunks accepted by the pipelined executor")
	}
}

// TestPipelinedPacedOnePort runs the pipelined executor with paced links and
// the one-port gate: the gate must serialize modeled transfer slots (so the
// run takes at least the summed transfer time) without breaking correctness.
func TestPipelinedPacedOnePort(t *testing.T) {
	inst := sched.Instance{R: 4, S: 6, T: 3}
	pl := smallPlatform()
	res, err := sched.ODDOML{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	q := 2
	a, b, c, want := buildMatrices(t, inst, q, 23)
	start := time.Now()
	cfg := Config{Workers: pl.P(), T: inst.T, Platform: pl, TimePerUnit: 20 * time.Microsecond, Pipelined: true, OnePort: true}
	if err := Run(cfg, res.Plan(), a, b, c); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Errorf("paced one-port run finished suspiciously fast (%v); pacing not applied", elapsed)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("paced one-port run wrong by %g", d)
	}
}

// TestApplyInstallmentParallelBitwise checks the multicore worker kernel is
// bitwise-identical to the sequential one for every procs value: block
// ownership never splits a block's ascending-k update order.
func TestApplyInstallmentParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ch := matrix.Chunk{Row0: 0, Col0: 0, H: 3, W: 5}
	d, q := 4, 6
	mkBlocks := func(n int) []*matrix.Block {
		out := make([]*matrix.Block, n)
		for i := range out {
			out[i] = matrix.NewBlock(q)
			out[i].FillRandom(rng)
		}
		return out
	}
	ab := mkBlocks(ch.H * d)
	bb := mkBlocks(d * ch.W)
	base := mkBlocks(ch.H * ch.W)
	seq := make([]*matrix.Block, len(base))
	for i := range base {
		seq[i] = base[i].Clone()
	}
	if err := ApplyInstallment(ch, seq, ab, bb, d); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, 2, 4, 16, 64} {
		par := make([]*matrix.Block, len(base))
		for i := range base {
			par[i] = base[i].Clone()
		}
		if err := ApplyInstallmentParallel(ch, par, ab, bb, d, procs); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range par {
			if d := par[i].MaxAbsDiff(seq[i]); d != 0 {
				t.Errorf("procs=%d: block %d deviates by %g (want bitwise equality)", procs, i, d)
			}
		}
	}
}

// TestRunPipelinedWithProcs drives the whole in-process stack with
// multi-goroutine workers and checks the result still matches bitwise.
func TestRunPipelinedWithProcs(t *testing.T) {
	inst := sched.Instance{R: 6, S: 8, T: 4}
	pl := smallPlatform()
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	q := 4
	a, b, cSeq, want := buildMatrices(t, inst, q, 29)
	_, _, cPar, _ := buildMatrices(t, inst, q, 29)
	if err := Run(Config{Workers: pl.P(), T: inst.T}, res.Plan(), a, b, cSeq); err != nil {
		t.Fatal(err)
	}
	if err := Run(Config{Workers: pl.P(), T: inst.T, Pipelined: true, Procs: 3}, res.Plan(), a, b, cPar); err != nil {
		t.Fatal(err)
	}
	if d := cPar.MaxAbsDiff(cSeq); d != 0 {
		t.Errorf("procs=3 pipelined C deviates from sequential C by %g", d)
	}
	if d := cPar.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("procs=3 pipelined C deviates from reference by %g", d)
	}
}
