package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/coded"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The conformance table: every policy of the concurrent core against every
// scenario, on one scripted backend, held to one contract — C bitwise-equal
// to the sequential oracle (solver tolerance only where a parity decode
// actually fired), the documented error for the fatal scenarios, every worker
// the backend took down counted as exactly one failure, no goroutine left
// behind. It lives in the external test package because the redundancy rows
// are planned by internal/coded, which imports the engine.

// The fleet and instance: 3 workers × 3 row-chunk jobs each, every job fed in
// single-panel installments — identical geometry, so coded mode can group
// them, and a fully deterministic initial assignment.
const (
	confWorkers = 3
	confPer     = 3
	confS       = 4
	confT       = 3
	confQ       = 3
)

func confPlan() []sim.PlanOp {
	var plan []sim.PlanOp
	for round := 0; round < confPer; round++ {
		for w := 0; w < confWorkers; w++ {
			ch := matrix.Chunk{Row0: round*confWorkers + w, Col0: 0, H: 1, W: confS}
			plan = append(plan, sim.PlanOp{Worker: w, Kind: trace.SendC, Chunk: ch})
			for k := 0; k < confT; k++ {
				plan = append(plan, sim.PlanOp{Worker: w, Kind: trace.SendAB, Chunk: ch, K0: k, K1: k + 1})
			}
			plan = append(plan, sim.PlanOp{Worker: w, Kind: trace.RecvC, Chunk: ch})
		}
	}
	return plan
}

func confMatrices() (a, b, c *matrix.BlockMatrix) {
	rng := rand.New(rand.NewSource(23))
	a = matrix.NewBlockMatrix(confWorkers*confPer, confT, confQ)
	b = matrix.NewBlockMatrix(confT, confS, confQ)
	c = matrix.NewBlockMatrix(confWorkers*confPer, confS, confQ)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	return a, b, c
}

// fakeFleet is the table's one backend: concurrency-safe, copying (like the
// TCP master, so the pooled staging path runs), computing with the real
// kernel, and scripted — workers die after a budget of operations, one unit
// stalls at its RecvC, or every RecvC parks until the test lets go. It checks
// the protocol as it goes: a worker holds at most one chunk and is only fed
// and flushed for the chunk it holds.
type fakeFleet struct {
	mu   sync.Mutex
	held [confWorkers]*fakeHeld
	ops  [confWorkers]int
	down [confWorkers]bool // ErrWorkerDown surfaced to the engine at least once
	// dieAfter[w] is the number of operations worker w serves before it is
	// gone for good; absent means it never dies.
	dieAfter map[int]int
	// All first SendCs wait for each other, so every worker is provably
	// mid-unit before anything else happens — without it an instant fake lets
	// fast workers finish (or speculate away) the whole plan before a doomed
	// worker's goroutine is ever scheduled, and its scripted fate is never
	// observed.
	arrivals int
	barrier  chan struct{}
	// stallChunk's first RecvC stalls: until stallFor passes (then the link is
	// declared dead, as a heartbeat timeout would) or until the gate cancels
	// the unit — which this worker never acknowledges, so the cancel handshake
	// retires the link.
	stallChunk *matrix.Chunk
	stallFor   time.Duration
	stalled    int // the worker the stall engaged on; -1 until then
	canceled   chan struct{}
	// hold, when non-nil, parks every RecvC; parked is closed by the first.
	hold, parked chan struct{}
	parkOnce     sync.Once
}

type fakeHeld struct {
	ch     matrix.Chunk
	blocks []*matrix.Block
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{dieAfter: map[int]int{}, barrier: make(chan struct{}), stalled: -1, canceled: make(chan struct{})}
}

// sequential lifts the start barrier, for the oracle's one-op-at-a-time loop.
func (f *fakeFleet) sequential() *fakeFleet {
	f.arrivals = confWorkers
	close(f.barrier)
	return f
}

func (f *fakeFleet) Workers() int       { return confWorkers }
func (f *fakeFleet) CopiesBlocks() bool { return true }

// op charges one operation to w; the error is non-nil once w is dead.
func (f *fakeFleet) op(w int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if limit, doomed := f.dieAfter[w]; doomed && f.ops[w] >= limit {
		f.down[w] = true
		return fmt.Errorf("fake: worker %d is gone: %w", w, engine.ErrWorkerDown)
	}
	f.ops[w]++
	return nil
}

func (f *fakeFleet) downs() (n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.down {
		if d {
			n++
		}
	}
	return n
}

func (f *fakeFleet) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	f.mu.Lock()
	if f.arrivals++; f.arrivals == confWorkers {
		close(f.barrier)
	}
	f.mu.Unlock()
	<-f.barrier
	if err := f.op(w); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.held[w] != nil {
		return fmt.Errorf("fake: worker %d sent %v while holding %v", w, ch, f.held[w].ch)
	}
	cp := make([]*matrix.Block, len(blocks))
	for i, blk := range blocks {
		cp[i] = blk.Clone()
	}
	f.held[w] = &fakeHeld{ch: ch, blocks: cp}
	return nil
}

func (f *fakeFleet) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	if err := f.op(w); err != nil {
		return err
	}
	f.mu.Lock()
	h := f.held[w]
	f.mu.Unlock()
	if h == nil || h.ch != ch {
		return fmt.Errorf("fake: worker %d got inputs for %v it does not hold", w, ch)
	}
	return engine.ApplyInstallment(ch, h.blocks, a, b, k1-k0)
}

func (f *fakeFleet) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	f.mu.Lock()
	hold := f.hold
	stall := f.stallChunk != nil && *f.stallChunk == ch
	if stall {
		f.stallChunk = nil // only the first copy to get here
		f.stalled = w
		f.dieAfter[w] = 0 // it never answers anything again
	}
	f.mu.Unlock()
	if hold != nil {
		f.parkOnce.Do(func() { close(f.parked) })
		<-hold
	}
	if stall {
		var cause error
		select {
		case <-f.canceled:
			cause = engine.ErrUnitCanceled
		case <-time.After(f.stallFor):
			cause = errors.New("heartbeat timeout")
		}
		f.mu.Lock()
		f.down[w] = true
		f.mu.Unlock()
		return nil, fmt.Errorf("fake: worker %d stalled on %v: %w; %w", w, ch, cause, engine.ErrWorkerDown)
	}
	if err := f.op(w); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.held[w]
	if h == nil || h.ch != ch {
		return nil, fmt.Errorf("fake: worker %d asked to flush %v it does not hold", w, ch)
	}
	f.held[w] = nil
	return h.blocks, nil
}

// CancelUnit implements engine.UnitCanceler for the stalled unit only: a
// healthy laggard just runs to completion and is discarded.
func (f *fakeFleet) CancelUnit(w int, ch matrix.Chunk) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w == f.stalled {
		select {
		case <-f.canceled:
		default:
			close(f.canceled)
		}
	}
}

// confPolicy builds one run's Options; the redundancy policies plan against
// the run's own A and C (parities are pre-encoded from the initial C).
type confPolicy struct {
	name string
	opts func(t *testing.T, plan []sim.PlanOp, a, c *matrix.BlockMatrix) engine.Options
}

func confTracker() *adapt.Tracker {
	return adapt.NewTracker(platform.Homogeneous(confWorkers, 1, 1, 60).Workers, time.Microsecond, 0)
}

func confRedundancy(mode coded.Mode, r int) func(*testing.T, []sim.PlanOp, *matrix.BlockMatrix, *matrix.BlockMatrix) engine.Options {
	return func(t *testing.T, plan []sim.PlanOp, a, c *matrix.BlockMatrix) engine.Options {
		red, err := coded.Plan(confT, plan, a, c, confWorkers, coded.Options{Mode: mode, R: r})
		if err != nil {
			t.Fatal(err)
		}
		return engine.Options{Redundancy: red}
	}
}

var confPolicies = []confPolicy{
	{"static", func(*testing.T, []sim.PlanOp, *matrix.BlockMatrix, *matrix.BlockMatrix) engine.Options {
		return engine.Options{}
	}},
	{"elastic", func(*testing.T, []sim.PlanOp, *matrix.BlockMatrix, *matrix.BlockMatrix) engine.Options {
		return engine.Options{Elastic: &engine.Elastic{Tracker: confTracker()}}
	}},
	{"replicated", confRedundancy(coded.ModeReplicated, 2)},
	{"coded", confRedundancy(coded.ModeCoded, 1)},
}

// confScenario scripts the fleet (and may cancel the run) and states the
// outcome the contract documents for it.
type confScenario struct {
	name   string
	script func(f *fakeFleet, gated bool, cancel context.CancelFunc)
	// wantErr, when non-nil, is the error the run must fail with (matched by
	// errors.Is); nil means the run must succeed with a correct C.
	wantErr error
}

var confScenarios = []confScenario{
	{name: "clean run", script: func(*fakeFleet, bool, context.CancelFunc) {}},
	{name: "one worker dies mid-job", script: func(f *fakeFleet, _ bool, _ context.CancelFunc) {
		f.dieAfter[1] = 2 // chunk and one installment delivered, then gone
	}},
	{name: "every worker dies", wantErr: engine.ErrWorkerDown, script: func(f *fakeFleet, _ bool, _ context.CancelFunc) {
		for w := 0; w < confWorkers; w++ {
			f.dieAfter[w] = 0
		}
	}},
	{name: "cancel mid-run", wantErr: context.Canceled, script: func(f *fakeFleet, _ bool, cancel context.CancelFunc) {
		f.hold, f.parked = make(chan struct{}), make(chan struct{})
		go func() {
			<-f.parked // a unit is in flight, wedged at its result
			cancel()
			close(f.hold) // wake the wedged RecvCs; the abort must win
		}()
	}},
	{name: "one unit stalls at RecvC", script: func(f *fakeFleet, gated bool, _ context.CancelFunc) {
		f.stallChunk = &matrix.Chunk{Row0: 0, Col0: 0, H: 1, W: confS}
		// Single-copy policies wait the stall out to the link's timeout and
		// fail over; the gate must absorb it long before this fires.
		f.stallFor = 30 * time.Millisecond
		if gated {
			f.stallFor = 30 * time.Second
		}
	}},
}

func engineCounter(name string) *obs.Counter { return obs.NewCounter(name, "") }

func TestCoreConformance(t *testing.T) {
	plan := confPlan()
	a, b, c0 := confMatrices()
	oracle := c0.Clone()
	if err := engine.ExecuteContext(context.Background(), confT, plan, a, b, oracle, newFakeFleet().sequential()); err != nil {
		t.Fatal(err)
	}
	failures := engineCounter("mm_engine_worker_failures_total")

	for _, pol := range confPolicies {
		for _, sc := range confScenarios {
			t.Run(pol.name+"/"+sc.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				c := c0.Clone()
				opts := pol.opts(t, plan, a, c)
				f := newFakeFleet()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sc.script(f, opts.Redundancy != nil, cancel)
				failed0 := failures.Value()

				start := time.Now()
				err := engine.Dispatch(ctx, confT, plan, a, b, c, f, opts)
				if elapsed := time.Since(start); elapsed > 10*time.Second {
					t.Errorf("run took %v; a stall was waited out instead of absorbed", elapsed)
				}

				switch {
				case sc.wantErr != nil:
					if !errors.Is(err, sc.wantErr) {
						t.Fatalf("err = %v, want %v in the chain", err, sc.wantErr)
					}
				case err != nil:
					t.Fatal(err)
				default:
					tol := 0.0
					if red := opts.Redundancy; red != nil && red.Stats().Decodes > 0 {
						tol = 1e-6 // reconstructed values are exact only to solver tolerance
					}
					if d := c.MaxAbsDiff(oracle); d > tol {
						t.Errorf("C differs from the sequential oracle by %g (tolerance %g)", d, tol)
					}
				}
				if got, want := failures.Value()-failed0, f.downs(); got != want {
					t.Errorf("mm_engine_worker_failures_total moved by %d, the backend took down %d workers", got, want)
				}
				if red := opts.Redundancy; red != nil && sc.name == "one unit stalls at RecvC" && red.Stats().Absorbed == 0 {
					t.Errorf("stalled unit never recorded as absorbed (stats %+v)", red.Stats())
				}

				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > baseline {
					t.Errorf("%d goroutines after the run, %d before", n, baseline)
				}
			})
		}
	}
}

// TestCoreFailureAccounting pins what the failure counters mean on the
// single-copy policies, where one retire is the only place they move. With
// worker 1 dying mid-way through the first of its three jobs and nothing else
// going wrong: one worker failure; one dispatch lost with it, so chunks
// dispatched = jobs + failures; and three orphans re-queued — the job in
// flight plus the two still queued — which is the replay count, exactly what
// the sequential oracle's retire counts for the same death. (So chunks =
// jobs + replays only when the dead worker's queue was empty: a queued orphan
// is re-queued without ever having been dispatched.)
func TestCoreFailureAccounting(t *testing.T) {
	plan := confPlan()
	chunks := engineCounter("mm_engine_chunks_total")
	replays := engineCounter("mm_engine_chunk_replays_total")
	failures := engineCounter("mm_engine_worker_failures_total")
	policies := map[string]func() engine.Options{
		"static": func() engine.Options { return engine.Options{} },
		// Drift re-planning is off: a re-plan before the death could move the
		// doomed worker's queued jobs and with them the orphan count.
		"elastic": func() engine.Options {
			return engine.Options{Elastic: &engine.Elastic{Tracker: confTracker(), DriftThreshold: -1}}
		},
	}
	for name, opts := range policies {
		t.Run(name, func(t *testing.T) {
			a, b, c := confMatrices()
			f := newFakeFleet()
			f.dieAfter[1] = 2
			chunks0, replays0, failures0 := chunks.Value(), replays.Value(), failures.Value()
			if err := engine.Dispatch(context.Background(), confT, plan, a, b, c, f, opts()); err != nil {
				t.Fatal(err)
			}
			const jobs = confWorkers * confPer
			if got := failures.Value() - failures0; got != 1 {
				t.Errorf("worker failures moved by %d, want 1", got)
			}
			if got := chunks.Value() - chunks0; got != jobs+1 {
				t.Errorf("chunks dispatched moved by %d, want jobs + failures = %d", got, jobs+1)
			}
			if got := replays.Value() - replays0; got != confPer {
				t.Errorf("chunk replays moved by %d, want the dead worker's %d orphans", got, confPer)
			}
		})
	}
}
