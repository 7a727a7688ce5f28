package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// elasticMock is a growable, thread-safe in-memory Backend for the elastic
// policy's tests: workers compute with the real kernel, chosen workers die
// after a scripted number of operations, and RecvC can be gated on a channel
// so tests control exactly when jobs complete relative to membership events.
type elasticMock struct {
	mu        sync.Mutex
	nw        int
	opsSeen   map[int]int
	deadAfter map[int]int // worker → ops served before every later op fails
	recvDone  map[int]int // completed jobs per worker
	held      map[int]mockHeld
	// recvGate, when non-nil, parks every RecvC until the channel closes, so
	// tests can wedge the whole fleet mid-job while membership changes land.
	recvGate chan struct{}
	// allWedged, when non-nil, is closed once wedgeTarget RecvC calls have
	// arrived (before they park on recvGate): the moment every dispatched job
	// is wedged and the queues are provably in the state the test wants.
	allWedged    chan struct{}
	wedgeTarget  int
	recvArrivals int
	// startBarrier, when non-nil, parks every SendC until barrierTarget
	// SendC calls have arrived: every worker is then provably mid-job before
	// any operation (an injected death included) proceeds. Without it, an
	// instant mock lets fast workers finish everything and collapse their
	// estimates before slow-seeded workers ever start — at which point a
	// re-plan legitimately starves the unstarted (apparently slow) workers,
	// and a death scripted on one of them is never observed.
	startBarrier    chan struct{}
	barrierTarget   int
	barrierArrivals int
}

type mockHeld struct {
	ch     matrix.Chunk
	blocks []*matrix.Block
}

func newElasticMock(nw int) *elasticMock {
	return &elasticMock{
		nw:        nw,
		opsSeen:   make(map[int]int),
		deadAfter: make(map[int]int),
		recvDone:  make(map[int]int),
		held:      make(map[int]mockHeld),
	}
}

func (m *elasticMock) Workers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nw
}

// grow adds one addressable worker and returns its index.
func (m *elasticMock) grow() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nw++
	return m.nw - 1
}

// op charges one backend operation to w and reports whether w is dead.
func (m *elasticMock) op(w int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if limit, scripted := m.deadAfter[w]; scripted && m.opsSeen[w] >= limit {
		return true
	}
	m.opsSeen[w]++
	return false
}

func (m *elasticMock) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	m.mu.Lock()
	bar := m.startBarrier
	if bar != nil {
		m.barrierArrivals++
		if m.barrierArrivals == m.barrierTarget {
			close(bar)
		}
	}
	m.mu.Unlock()
	if bar != nil {
		<-bar
	}
	if m.op(w) {
		return fmt.Errorf("mock: injected death of %d: %w", w, ErrWorkerDown)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held[w].blocks != nil {
		return fmt.Errorf("mock: worker %d already holds a chunk", w)
	}
	cp := make([]*matrix.Block, len(blocks))
	for i, b := range blocks {
		cp[i] = b.Clone()
	}
	m.held[w] = mockHeld{ch: ch, blocks: cp}
	return nil
}

func (m *elasticMock) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	if m.op(w) {
		return fmt.Errorf("mock: injected death of %d: %w", w, ErrWorkerDown)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[w]
	if h.blocks == nil || h.ch != ch {
		return fmt.Errorf("mock: worker %d got inputs for %v it does not hold", w, ch)
	}
	return ApplyInstallment(ch, h.blocks, a, b, k1-k0)
}

func (m *elasticMock) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	m.mu.Lock()
	gate := m.recvGate
	m.recvArrivals++
	if m.allWedged != nil && m.recvArrivals == m.wedgeTarget {
		close(m.allWedged)
	}
	m.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if m.op(w) {
		return nil, fmt.Errorf("mock: injected death of %d: %w", w, ErrWorkerDown)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[w]
	if h.blocks == nil || h.ch != ch {
		return nil, fmt.Errorf("mock: worker %d asked to flush %v it does not hold", w, ch)
	}
	delete(m.held, w)
	m.recvDone[w]++
	return h.blocks, nil
}

func (m *elasticMock) jobs(w int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recvDone[w]
}

// rowPlan hand-builds a fully deterministic plan: C is (nw·perWorker)×s
// blocks, each job is one 1×s row chunk fed in single-panel installments
// over t, and worker w owns rows w, w+nw, … — exactly perWorker jobs per
// worker, so tests control job placement without a scheduler in the loop.
func rowPlan(nw, perWorker, s, t int) []sim.PlanOp {
	var plan []sim.PlanOp
	for round := 0; round < perWorker; round++ {
		for w := 0; w < nw; w++ {
			ch := matrix.Chunk{Row0: round*nw + w, Col0: 0, H: 1, W: s}
			plan = append(plan, sim.PlanOp{Worker: w, Kind: trace.SendC, Chunk: ch})
			for k := 0; k < t; k++ {
				plan = append(plan, sim.PlanOp{Worker: w, Kind: trace.SendAB, Chunk: ch, K0: k, K1: k + 1})
			}
			plan = append(plan, sim.PlanOp{Worker: w, Kind: trace.RecvC, Chunk: ch})
		}
	}
	return plan
}

// elasticFixture holds one run's operands plus the bitwise oracle C computed
// by the sequential executor over a faultless backend.
type elasticFixture struct {
	t       *testing.T
	tdim    int
	plan    []sim.PlanOp
	a, b, c *matrix.BlockMatrix
	want    *matrix.BlockMatrix
}

func newElasticFixture(t *testing.T, plan []sim.PlanOp, nw, r, s, tdim, q int) *elasticFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	a := matrix.NewBlockMatrix(r, tdim, q)
	b := matrix.NewBlockMatrix(tdim, s, q)
	c := matrix.NewBlockMatrix(r, s, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	if err := Execute(tdim, plan, a, b, want, newElasticMock(nw)); err != nil {
		t.Fatal(err)
	}
	return &elasticFixture{t: t, tdim: tdim, plan: plan, a: a, b: b, c: c, want: want}
}

func (f *elasticFixture) assertBitwise() {
	f.t.Helper()
	if !f.c.Equal(f.want, 0) {
		f.t.Fatal("elastic C is not bitwise-identical to the sequential executor's")
	}
}

func elasticPlatform(n int) *platform.Platform {
	ws := make([]platform.Worker, n)
	for i := range ws {
		ws[i] = platform.Worker{C: 1 + 0.2*float64(i), W: 1 + 0.1*float64(i), M: 60}
	}
	return platform.MustNew(ws...)
}

func testTracker(n int) *adapt.Tracker {
	return adapt.NewTracker(elasticPlatform(n).Workers, time.Microsecond, 0)
}

// TestElasticJoinWhileQueueEmpty: every worker has exactly one job, all of
// them dispatched and wedged in RecvC — the queues are empty. A worker that
// joins now must trigger a re-plan that finds zero pending jobs, get no
// work, and leave completion and the result undisturbed.
func TestElasticJoinWhileQueueEmpty(t *testing.T) {
	const nw, s, tdim = 3, 4, 3
	plan := rowPlan(nw, 1, s, tdim)
	f := newElasticFixture(t, plan, nw, nw, s, tdim, 3)

	be := newElasticMock(nw)
	be.recvGate = make(chan struct{})
	join := make(chan int, 1)
	joined := make(chan struct{})
	var mu sync.Mutex
	type replan struct {
		reason  string
		pending int
	}
	var replans []replan
	el := &Elastic{
		Tracker:        testTracker(nw),
		Join:           join,
		DriftThreshold: -1,
		OnReplan: func(reason string, pending int) {
			mu.Lock()
			replans = append(replans, replan{reason, pending})
			mu.Unlock()
			if reason == "join" {
				close(joined)
			}
		},
	}
	be.wedgeTarget, be.allWedged = nw, make(chan struct{})
	go func() {
		<-be.allWedged // every job is in flight; the queues are empty
		join <- be.grow()
		<-joined
		close(be.recvGate)
	}()
	if err := Dispatch(context.Background(), f.tdim, f.plan, f.a, f.b, f.c, be, Options{Elastic: el}); err != nil {
		t.Fatal(err)
	}
	f.assertBitwise()
	if got := be.jobs(nw); got != 0 {
		t.Fatalf("joined worker ran %d jobs of an already-dispatched plan", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(replans) != 1 || replans[0].reason != "join" {
		t.Fatalf("replans = %v, want exactly one join", replans)
	}
	// The join may race the final dispatches, but with every job wedged in
	// RecvC before the gate closes there can be nothing left to move by the
	// time the join re-plan runs.
	if replans[0].pending != 0 {
		t.Fatalf("join re-plan moved %d jobs from supposedly empty queues", replans[0].pending)
	}
}

// TestElasticJoinMidReplay: a worker dies early, its jobs are re-planned
// onto the survivors (which are wedged in RecvC, so the recovered jobs stay
// queued), and a new worker joins mid-replay — it must drain recovered work
// and the result must stay bitwise-identical.
func TestElasticJoinMidReplay(t *testing.T) {
	const nw, per, s, tdim = 3, 3, 4, 3
	plan := rowPlan(nw, per, s, tdim)
	f := newElasticFixture(t, plan, nw, nw*per, s, tdim, 3)

	be := newElasticMock(nw)
	be.recvGate = make(chan struct{})
	be.deadAfter[1] = 1 // dies on its second op: mid-first-job
	join := make(chan int, 1)
	departed := make(chan struct{})
	joined := make(chan struct{})
	var mu sync.Mutex
	counts := map[string]int{}
	el := &Elastic{
		Tracker:        testTracker(nw),
		Join:           join,
		DriftThreshold: -1,
		OnReplan: func(reason string, pending int) {
			mu.Lock()
			counts[reason]++
			n := counts[reason]
			mu.Unlock()
			switch {
			case reason == "depart" && n == 1:
				close(departed)
			case reason == "join" && n == 1:
				close(joined)
			}
		},
	}
	go func() {
		<-departed // recovered jobs queued; survivors wedged in RecvC
		join <- be.grow()
		<-joined
		close(be.recvGate)
	}()
	if err := Dispatch(context.Background(), f.tdim, f.plan, f.a, f.b, f.c, be, Options{Elastic: el}); err != nil {
		t.Fatal(err)
	}
	f.assertBitwise()
	if got := be.jobs(nw); got == 0 {
		t.Fatal("joined worker drained none of the recovered jobs")
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["depart"] != 1 || counts["join"] != 1 {
		t.Fatalf("replans = %v, want one depart and one join", counts)
	}
}

// TestElasticTwoDepartures: two workers die in the same installment window,
// at several points of the run; the survivors replay everything and the
// result stays bitwise-identical.
func TestElasticTwoDepartures(t *testing.T) {
	const nw, per, s, tdim = 4, 2, 4, 3
	plan := rowPlan(nw, per, s, tdim)
	// Every death point sits inside the victims' first job (5 ops), so both
	// departures are guaranteed to be *observed*: a later death could be
	// masked by a re-plan starving the victim of further operations.
	for _, deathAt := range []int{0, 1, 3, 4} {
		f := newElasticFixture(t, plan, nw, nw*per, s, tdim, 3)
		be := newElasticMock(nw)
		be.deadAfter[1] = deathAt
		be.deadAfter[2] = deathAt
		// Hold every first job at its SendC until all four are in flight:
		// both victims are then mid-job when they die, so both departures
		// are observed even when the healthy workers are instant.
		be.startBarrier, be.barrierTarget = make(chan struct{}), nw
		var mu sync.Mutex
		departs := 0
		el := &Elastic{
			Tracker:        testTracker(nw),
			DriftThreshold: -1,
			OnReplan: func(reason string, _ int) {
				if reason == "depart" {
					mu.Lock()
					departs++
					mu.Unlock()
				}
			},
		}
		if err := Dispatch(context.Background(), f.tdim, f.plan, f.a, f.b, f.c, be, Options{Elastic: el}); err != nil {
			t.Fatalf("death-at %d: %v", deathAt, err)
		}
		f.assertBitwise()
		mu.Lock()
		if departs != 2 {
			t.Fatalf("death-at %d: %d depart re-plans, want 2", deathAt, departs)
		}
		mu.Unlock()
		if be.jobs(1)+be.jobs(2) > 2*deathAt {
			t.Fatalf("death-at %d: dead workers completed more jobs than their op budget allows", deathAt)
		}
	}
}

// scriptedEstimator reports a fixed large drift until the executor consumes
// it with a re-plan (the second Rebase: the first is the executor adopting
// the initial plan), then zero forever — a deterministic stand-in for "one
// genuine speed change, then a stable platform".
type scriptedEstimator struct {
	*adapt.Tracker
	mu      sync.Mutex
	rebases int
}

func (s *scriptedEstimator) Rebase() {
	s.mu.Lock()
	s.rebases++
	s.mu.Unlock()
	s.Tracker.Rebase()
}

func (s *scriptedEstimator) Drift() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rebases <= 1 {
		return 10
	}
	return 0
}

// TestElasticDriftReplansExactlyOnce: a drifted estimate triggers one
// re-plan; once the re-plan has consumed the drift the executor must not
// re-plan again (no thrash), and the result stays bitwise-identical.
func TestElasticDriftReplansExactlyOnce(t *testing.T) {
	const nw, per, s, tdim = 2, 6, 4, 3
	plan := rowPlan(nw, per, s, tdim)
	f := newElasticFixture(t, plan, nw, nw*per, s, tdim, 3)
	be := newElasticMock(nw)
	var mu sync.Mutex
	counts := map[string]int{}
	el := &Elastic{
		Tracker:        &scriptedEstimator{Tracker: testTracker(nw)},
		DriftThreshold: 0.5,
		OnReplan: func(reason string, pending int) {
			mu.Lock()
			counts[reason]++
			mu.Unlock()
		},
	}
	if err := Dispatch(context.Background(), f.tdim, f.plan, f.a, f.b, f.c, be, Options{Elastic: el}); err != nil {
		t.Fatal(err)
	}
	f.assertBitwise()
	mu.Lock()
	defer mu.Unlock()
	if counts["drift"] != 1 {
		t.Fatalf("drift replans = %d, want exactly 1 (counts %v)", counts["drift"], counts)
	}
}

// TestRunElasticInProcess drives the elastic policy over the real in-process
// goroutine backend end to end and checks observations landed.
func TestRunElasticInProcess(t *testing.T) {
	pl := elasticPlatform(3)
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 4
	rng := rand.New(rand.NewSource(5))
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	b := matrix.NewBlockMatrix(inst.T, inst.S, q)
	c := matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	cfg := Config{Workers: pl.P(), T: inst.T, Platform: pl}
	if err := Run(cfg, plan, a, b, want); err != nil {
		t.Fatal(err)
	}
	tr := adapt.NewTracker(pl.Workers, time.Microsecond, 0)
	cfg.Pipelined, cfg.Options = true, Options{Elastic: &Elastic{Tracker: tr}}
	if err := RunContext(context.Background(), cfg, plan, a, b, c); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 0) {
		t.Fatal("elastic in-process C differs bitwise from the static run")
	}
	var samples int
	for _, e := range tr.Snapshot() {
		samples += e.Transfers + e.Computes
	}
	if samples == 0 {
		t.Fatal("elastic run recorded no observations")
	}
}
