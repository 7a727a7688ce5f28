package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/sim"
)

// stallBackend is a concurrency-safe in-process compute backend for the
// k-of-n gate tests: every worker computes installments for real (so results
// are bitwise-comparable against the plain executors), and a pluggable stall
// predicate freezes chosen units at their RecvC until the gate wire-cancels
// them through CancelUnit — the in-process stand-in for a live-but-stalled
// TCP worker.
type stallBackend struct {
	nw    int
	stall func(w int, ch matrix.Chunk) bool

	mu      sync.Mutex
	held    []map[matrix.Chunk][]*matrix.Block
	cancels []map[matrix.Chunk]chan struct{}
}

func newStallBackend(nw int, stall func(w int, ch matrix.Chunk) bool) *stallBackend {
	be := &stallBackend{nw: nw, stall: stall}
	be.held = make([]map[matrix.Chunk][]*matrix.Block, nw)
	be.cancels = make([]map[matrix.Chunk]chan struct{}, nw)
	for w := 0; w < nw; w++ {
		be.held[w] = make(map[matrix.Chunk][]*matrix.Block)
		be.cancels[w] = make(map[matrix.Chunk]chan struct{})
	}
	return be
}

func (be *stallBackend) Workers() int { return be.nw }

func (be *stallBackend) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	be.mu.Lock()
	defer be.mu.Unlock()
	if _, dup := be.held[w][ch]; dup {
		return fmt.Errorf("worker %d already holds chunk %v", w, ch)
	}
	be.held[w][ch] = blocks
	return nil
}

func (be *stallBackend) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	be.mu.Lock()
	blocks, ok := be.held[w][ch]
	be.mu.Unlock()
	if !ok {
		return fmt.Errorf("worker %d got inputs for %v it does not hold", w, ch)
	}
	return ApplyInstallment(ch, blocks, a, b, k1-k0)
}

func (be *stallBackend) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	be.mu.Lock()
	blocks, ok := be.held[w][ch]
	if !ok {
		be.mu.Unlock()
		return nil, fmt.Errorf("worker %d asked to flush %v it does not hold", w, ch)
	}
	if be.stall != nil && be.stall(w, ch) {
		cancel := make(chan struct{})
		be.cancels[w][ch] = cancel
		be.mu.Unlock()
		select {
		case <-cancel:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("worker %d stalled on %v and was never canceled", w, ch)
		}
		be.mu.Lock()
		delete(be.cancels[w], ch)
		delete(be.held[w], ch)
		be.mu.Unlock()
		return nil, fmt.Errorf("stalled unit dropped: %w", ErrUnitCanceled)
	}
	delete(be.held[w], ch)
	be.mu.Unlock()
	return blocks, nil
}

func (be *stallBackend) CancelUnit(w int, ch matrix.Chunk) {
	be.mu.Lock()
	defer be.mu.Unlock()
	if cancel, ok := be.cancels[w][ch]; ok {
		close(cancel)
	}
}

// planAndMatrices schedules inst with s and builds the operands plus a plain
// pipelined-run baseline C for bitwise comparison.
func planAndMatrices(t *testing.T, s sched.Scheduler, inst sched.Instance, q int, seed int64) (plan []sim.PlanOp, a, b, c, base *matrix.BlockMatrix) {
	t.Helper()
	res, err := s.Schedule(smallPlatform(), inst)
	if err != nil {
		t.Fatal(err)
	}
	plan = res.Plan()
	a, b, c, _ = buildMatrices(t, inst, q, seed)
	_, _, base, _ = buildMatrices(t, inst, q, seed)
	cfg := Config{Workers: smallPlatform().P(), T: inst.T, Pipelined: true}
	if err := RunContext(context.Background(), cfg, plan, a, b, base); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return plan, a, b, c, base
}

// TestRedundantEmptyUnitsMatchesPlainBitwise: the gate with no planned units
// (speculation armed but never needed on a healthy run) commits only
// systematic results, so C stays bitwise-identical.
func TestRedundantEmptyUnitsMatchesPlainBitwise(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	plan, a, b, c, base := planAndMatrices(t, sched.Het{}, inst, 3, 12)
	cfg := Config{Workers: smallPlatform().P(), T: inst.T, Pipelined: true}
	cfg.Options.Redundancy = &Redundancy{Mode: "replicated"}
	if err := RunContext(context.Background(), cfg, plan, a, b, c); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(base); d != 0 {
		t.Fatalf("gated C differs from plain pipelined C by %g (want bitwise equal)", d)
	}
}

// TestRedundantReplicasBitwiseAndArbitrated replicates every plan job onto
// another worker, so nearly every job produces a duplicate result the gate
// must arbitrate (first commit wins, laggard discarded). Run under -race this
// is the duplicate-result arbitration test; the result must stay bitwise
// equal to the plain run because every copy replays the identical snapshot
// and installment sequence.
func TestRedundantReplicasBitwiseAndArbitrated(t *testing.T) {
	inst := sched.Instance{R: 8, S: 12, T: 5}
	for _, s := range []sched.Scheduler{sched.Het{}, sched.Hom{}} {
		plan, a, b, c, base := planAndMatrices(t, s, inst, 3, 13)
		jobs, _, err := sim.JobsFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		nw := smallPlatform().P()
		red := &Redundancy{Mode: "replicated"}
		for ji, j := range jobs {
			red.Units = append(red.Units, RedundantUnit{Worker: (j.Worker + 1) % nw, Job: ji})
		}
		cfg := Config{Workers: nw, T: inst.T, Pipelined: true, Options: Options{Redundancy: red}}
		if err := RunContext(context.Background(), cfg, plan, a, b, c); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if d := c.MaxAbsDiff(base); d != 0 {
			t.Fatalf("%s: replicated C differs from plain C by %g (want bitwise equal)", s.Name(), d)
		}
		st := red.Stats()
		if st.Units == 0 {
			t.Errorf("%s: no redundant units dispatched (stats %+v)", s.Name(), st)
		}
		if st.DuplicateWins > 0 && st.WastedBytes == 0 {
			t.Errorf("%s: duplicate wins recorded without wasted bytes (stats %+v)", s.Name(), st)
		}
	}
}

// TestRedundantAbsorbsStalledUnit freezes the first copy of one chosen job
// to reach its result — whichever worker carries it — for 30s ≫ the test
// budget, and expects the gate to commit that job through another copy
// (replica or speculation) and wire-cancel the stalled one: the straggler is
// absorbed with zero timeout waiting, and C stays bitwise-identical because
// every committed result is systematic.
func TestRedundantAbsorbsStalledUnit(t *testing.T) {
	inst := sched.Instance{R: 8, S: 12, T: 5}
	plan, a, b, c, base := planAndMatrices(t, sched.Het{}, inst, 3, 14)
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	nw := smallPlatform().P()
	red := &Redundancy{Mode: "replicated"}
	for ji, j := range jobs {
		red.Units = append(red.Units, RedundantUnit{Worker: (j.Worker + 1) % nw, Job: ji})
	}
	victim := jobs[0].Chunk
	var mu sync.Mutex
	engaged := false
	be := newStallBackend(nw, func(w int, ch matrix.Chunk) bool {
		mu.Lock()
		defer mu.Unlock()
		if ch == victim && !engaged {
			engaged = true
			return true
		}
		return false
	})
	start := time.Now()
	if err := Dispatch(context.Background(), inst.T, plan, a, b, c, be, Options{Redundancy: red}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("run took %v; the stalled unit was waited out instead of absorbed", elapsed)
	}
	if d := c.MaxAbsDiff(base); d != 0 {
		t.Fatalf("C differs from plain run by %g (want bitwise equal: every commit is systematic)", d)
	}
	st := red.Stats()
	if st.Absorbed == 0 {
		t.Errorf("stalled unit was never recorded as absorbed (stats %+v)", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if !engaged {
		t.Fatal("stall never engaged; the test exercised nothing")
	}
}

// TestRedundantValidationRejectsBadUnits: malformed redundancy must fail
// before any dispatch.
func TestRedundantValidationRejectsBadUnits(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	plan, a, b, c, _ := planAndMatrices(t, sched.Het{}, inst, 3, 15)
	cfg := Config{Workers: smallPlatform().P(), T: inst.T, Pipelined: true}
	for name, units := range map[string][]RedundantUnit{
		"worker out of range": {{Worker: 99, Job: 0}},
		"job out of range":    {{Worker: 0, Job: 9999}},
		"negative worker":     {{Worker: -1, Job: 0}},
	} {
		cfg.Options.Redundancy = &Redundancy{Mode: "replicated", Units: units}
		if err := RunContext(context.Background(), cfg, plan, a, b, c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
