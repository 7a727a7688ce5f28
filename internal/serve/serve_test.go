package serve

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
)

// testLogger routes a component's structured log records into the test's log.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(tbWriter{t}, nil))
}

type tbWriter struct{ testing.TB }

func (w tbWriter) Write(p []byte) (int, error) {
	w.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startWorkers launches n loopback worker daemons (the real serve loop of
// cmd/mmworker) and returns their addresses.
func startWorkers(t *testing.T, n int, opts func(i int) mmnet.WorkerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		o := mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if opts != nil {
			o = opts(i)
		}
		go mmnet.Serve(ln, addrs[i], o)
	}
	return addrs
}

// testMatrices builds random A, B, C plus the in-process engine's C — the
// bitwise oracle. Every plan updates each C block through the same
// ascending-k MulAdd sequence, so any correct execution of the product is
// bitwise-identical to any other, whatever subset was selected.
func testMatrices(t *testing.T, inst sched.Instance, q int, seed int64) (a, b, c, want *matrix.BlockMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a = matrix.NewBlockMatrix(inst.R, inst.T, q)
	b = matrix.NewBlockMatrix(inst.T, inst.S, q)
	c = matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)

	pl := platform.Homogeneous(2, 1, 1, 40)
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	want = c.Clone()
	aa, bb := a.Clone(), b.Clone()
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, res.Plan(), aa, bb, want); err != nil {
		t.Fatal(err)
	}
	return a, b, c, want
}

func homSpecs(n int) []platform.Worker {
	ws := make([]platform.Worker, n)
	for i := range ws {
		ws[i] = platform.Worker{C: 1, W: 1, M: 40}
	}
	return ws
}

// TestSelectResources checks the selection invariants: the share cap is
// respected, the plan is compacted onto exactly the leased workers, and
// homogeneous fleets shortlist deterministically in index order.
func TestSelectResources(t *testing.T) {
	specs := homSpecs(4)
	inst := sched.Instance{R: 6, S: 9, T: 4}
	sel, err := SelectResources(specs, []int{0, 1, 2, 3}, 2, inst, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) > 2 {
		t.Fatalf("share 2 leased %v", sel.Workers)
	}
	for _, w := range sel.Workers {
		if w != 0 && w != 1 {
			t.Fatalf("homogeneous shortlist should take lowest indices, leased %v", sel.Workers)
		}
	}
	for i, op := range sel.Plan {
		if op.Worker < 0 || op.Worker >= len(sel.Workers) {
			t.Fatalf("plan op %d references worker %d outside lease of %d", i, op.Worker, len(sel.Workers))
		}
	}

	// A slower, better-connected worker mix: the shortlist must prefer the
	// lowest w+2c workers, not the lowest indices.
	specs = []platform.Worker{
		{Name: "slow", C: 3, W: 4, M: 40},
		{Name: "fast", C: 1, W: 1, M: 40},
		{Name: "mid", C: 1.5, W: 1.5, M: 40},
	}
	sel, err = SelectResources(specs, []int{0, 1, 2}, 1, inst, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 1 || sel.Workers[0] != 1 {
		t.Fatalf("share 1 should lease the fastest worker (1), got %v", sel.Workers)
	}
}

// TestFleetLeaseReturnReuse cycles lease → run → return twice over the same
// fleet and checks the connections are reused (the worker never re-registers
// between jobs, which the per-worker jobs metric and idle states witness).
func TestFleetLeaseReturnReuse(t *testing.T) {
	addrs := startWorkers(t, 3, nil)
	f, err := NewFleet(addrs, homSpecs(3), FleetOptions{Keepalive: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	for round := 0; round < 2; round++ {
		idle := f.Idle()
		if len(idle) != 3 {
			t.Fatalf("round %d: idle %v, want all 3", round, idle)
		}
		sel, err := SelectResources(f.Specs(), idle, 2, inst, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Lease(sel.Workers)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c, want := testMatrices(t, inst, 4, int64(200+round))
		if err := m.Execute(context.Background(), inst.T, sel.Plan, a, b, c, engine.Options{}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		f.Return(sel.Workers, m, false)
		if d := c.MaxAbsDiff(want); d != 0 {
			t.Errorf("round %d: C differs from engine C by %g (want bitwise equal)", round, d)
		}
	}
	for _, wm := range f.Metrics() {
		if wm.State == StateDown.String() {
			t.Errorf("worker %s down after clean lease cycles", wm.Addr)
		}
	}
	// Close is idempotent, like Master.Shutdown: the explicit call here and
	// the deferred one must both return cleanly.
	f.Close()
	f.Close()
}

// TestNewFleetConnsOwnsConnsOnError: a rejected NewFleetConns releases the
// sessions it was handed, so their worker serves the next master at once
// instead of holding the dial until its timeout.
func TestNewFleetConnsOwnsConnsOnError(t *testing.T) {
	addrs := startWorkers(t, 1, nil)
	opts := FleetOptions{Keepalive: -1, Master: mmnet.MasterOptions{DialTimeout: 2 * time.Second}}
	wc, err := mmnet.DialWorker(addrs[0], &opts.Master)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleetConns(addrs, []*mmnet.WorkerConn{wc}, homSpecs(2), opts); err == nil {
		t.Fatal("two specs for one worker accepted")
	}
	f, err := NewFleet(addrs, homSpecs(1), opts)
	if err != nil {
		t.Fatalf("the rejected session was not handed back: %v", err)
	}
	f.Close()
}

// TestReturnFailedRecyclesSessions checks the poisoned-session guard: after
// a failed execution the reusable-backend contract gives no idle-worker
// guarantee, so Return(failed=true) must not pool the surviving connections
// — it releases their sessions and the next lease gets freshly registered
// ones from the still-running daemons.
func TestReturnFailedRecyclesSessions(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	f, err := NewFleet(addrs, homSpecs(2), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	m, err := f.Lease([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Return([]int{0, 1}, m, true)
	for _, wm := range f.Metrics() {
		if wm.State != StateDown.String() {
			t.Fatalf("failed-run survivor pooled as %s; must be recycled", wm.State)
		}
	}

	// The daemons survived; the next lease runs on fresh sessions.
	deadline := time.Now().Add(5 * time.Second)
	for len(f.Idle()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never re-registered after recycling: %+v", f.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
	inst := sched.Instance{R: 3, S: 4, T: 2}
	sel, err := SelectResources(f.Specs(), []int{0, 1}, 0, inst, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f.Lease(sel.Workers)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, want := testMatrices(t, inst, 3, 601)
	if err := m2.Execute(context.Background(), inst.T, sel.Plan, a, b, c, engine.Options{}); err != nil {
		t.Fatalf("run on recycled sessions: %v", err)
	}
	f.Return(sel.Workers, m2, false)
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs by %g after session recycling", d)
	}
}

// TestServerConcurrentJobsDisjointLeases submits two products to a 4-worker
// fleet and checks they run concurrently on disjoint leased subsets, each C
// bitwise-equal to the in-process engine.
func TestServerConcurrentJobsDisjointLeases(t *testing.T) {
	addrs := startWorkers(t, 4, nil)
	f, err := NewFleet(addrs, homSpecs(4), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 2, Logger: testLogger(t)})
	defer s.Close()

	// Big enough that both jobs are still running when we look.
	inst := sched.Instance{R: 6, S: 9, T: 4}
	q := 64
	a1, b1, c1, want1 := testMatrices(t, inst, q, 301)
	a2, b2, c2, want2 := testMatrices(t, inst, q, 302)

	id1, err := s.Submit(a1, b1, c1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(a2, b2, c2)
	if err != nil {
		t.Fatal(err)
	}

	sawBothRunning := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Status()
		if st.Running == 2 {
			sawBothRunning = true
			break
		}
		if st.Done+st.Failed == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := s.Wait(id1); err != nil {
		t.Fatalf("job %d: %v", id1, err)
	}
	if err := s.Wait(id2); err != nil {
		t.Fatalf("job %d: %v", id2, err)
	}
	if !sawBothRunning {
		t.Error("jobs never ran concurrently")
	}

	st := s.Status()
	leases := map[uint64][]int{}
	for _, js := range st.Jobs {
		if js.State != JobDone.String() {
			t.Errorf("job %d state %s: %s", js.ID, js.State, js.Error)
		}
		leases[js.ID] = js.Workers
	}
	seen := map[int]bool{}
	for id, lease := range leases {
		if len(lease) == 0 {
			t.Fatalf("job %d has no lease", id)
		}
		for _, w := range lease {
			if seen[w] {
				t.Fatalf("worker %d appears in two leases %v", w, leases)
			}
			seen[w] = true
		}
	}

	if d := c1.MaxAbsDiff(want1); d != 0 {
		t.Errorf("job 1 C differs from in-process engine by %g (want bitwise equal)", d)
	}
	if d := c2.MaxAbsDiff(want2); d != 0 {
		t.Errorf("job 2 C differs from in-process engine by %g (want bitwise equal)", d)
	}
}

// TestConcurrentJobCrashIsolation is the isolation contract under failure:
// two jobs on disjoint leases, one worker crashes mid-job. The crashed job
// must fail over within its own lease and still produce the bitwise-correct
// C; the other job's C must be bitwise-identical too, its lease untouched by
// the crash, and its latency bounded far below any failover timeout — the
// crash of a foreign worker is invisible to it. Afterwards the fleet
// re-dials the crashed worker's daemon: no worker process restarts between
// jobs.
func TestConcurrentJobCrashIsolation(t *testing.T) {
	const crasher = 3
	addrs := startWorkers(t, 4, func(i int) mmnet.WorkerOptions {
		o := mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == crasher {
			o.CrashAfterInstalls = 2
		}
		return o
	})
	f, err := NewFleet(addrs, homSpecs(4), FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 2, Logger: testLogger(t)})
	defer s.Close()

	inst := sched.Instance{R: 6, S: 9, T: 4}
	aA, bA, cA, wantA := testMatrices(t, inst, 8, 401) // healthy lease [0,1]
	aB, bB, cB, wantB := testMatrices(t, inst, 8, 402) // crashing lease [2,3]

	// The premise — A on [0,1] while B runs on [2,3] — needs both jobs queued
	// before the first dispatch: a sub-millisecond job A would otherwise be
	// done, and its lease free for B, before B is even submitted. So the whole
	// fleet is held until both Submits have returned.
	all := []int{0, 1, 2, 3}
	hold, err := f.Lease(all)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := s.Submit(aA, bA, cA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Submit(aB, bB, cB)
	if err != nil {
		t.Fatal(err)
	}
	f.Return(all, hold, false)
	s.kick()
	startedA := time.Now()
	if err := s.Wait(idA); err != nil {
		t.Fatalf("healthy job: %v", err)
	}
	healthyLatency := time.Since(startedA)
	if err := s.Wait(idB); err != nil {
		t.Fatalf("crashed job should fail over within its lease: %v", err)
	}

	st := s.Status()
	var leaseA, leaseB []int
	for _, js := range st.Jobs {
		switch js.ID {
		case idA:
			leaseA = js.Workers
		case idB:
			leaseB = js.Workers
		}
	}
	for _, w := range leaseA {
		if w == crasher {
			t.Fatalf("healthy job leased the crashing worker: %v", leaseA)
		}
	}
	found := false
	for _, w := range leaseB {
		if w == crasher {
			found = true
		}
	}
	if !found {
		t.Fatalf("test premise broken: crashing worker not in second lease %v (first %v)", leaseB, leaseA)
	}

	if d := cA.MaxAbsDiff(wantA); d != 0 {
		t.Errorf("healthy job's C perturbed by a foreign crash: differs by %g", d)
	}
	if d := cB.MaxAbsDiff(wantB); d != 0 {
		t.Errorf("crashed job's C wrong by %g after in-lease failover", d)
	}
	// The healthy job must never feel the foreign failover: its latency stays
	// far below the 10s IOTimeout a shared-fate design would expose it to.
	if healthyLatency > 5*time.Second {
		t.Errorf("healthy job took %v; the foreign crash leaked into its latency", healthyLatency)
	}

	// The daemon behind the crashed session is still alive: the fleet's
	// re-dial must bring the worker back without any process restart.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if idle := f.Idle(); len(idle) == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crashed worker never re-registered: metrics %+v", f.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientProtocolLoopback exercises the full daemon path over TCP: two
// concurrent client submissions (the wire protocol, not in-process Submit)
// plus a stats query, each returned C bitwise-equal to the in-process
// engine.
func TestClientProtocolLoopback(t *testing.T) {
	addrs := startWorkers(t, 4, nil)
	f, err := NewFleet(addrs, homSpecs(4), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 2, Logger: testLogger(t)})
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ListenAndServe(ln)
	daemon := ln.Addr().String()

	inst := sched.Instance{R: 5, S: 7, T: 3}
	type result struct {
		c    *matrix.BlockMatrix
		want *matrix.BlockMatrix
		err  error
	}
	results := make(chan result, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		a, b, c, want := testMatrices(t, inst, 8, int64(500+i))
		go func() {
			got, _, err := SubmitProduct(ctx, daemon, a, b, c, nil, ClassStandard)
			results <- result{c: got, want: want, err: err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("submit %d: %v", i, r.err)
		}
		if d := r.c.MaxAbsDiff(r.want); d != 0 {
			t.Errorf("submit %d: C differs from in-process engine by %g (want bitwise equal)", i, d)
		}
	}

	st, err := FetchStats(daemon, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 || len(st.Workers) != 4 {
		t.Errorf("stats: done=%d workers=%d, want 2 and 4", st.Done, len(st.Workers))
	}
	for _, js := range st.Jobs {
		if js.Algorithm == "" {
			t.Errorf("job %d reported no algorithm", js.ID)
		}
	}
}

// TestSubmitRejectsBadShapes covers admission validation.
func TestSubmitRejectsBadShapes(t *testing.T) {
	addrs := startWorkers(t, 1, nil)
	f, err := NewFleet(addrs, homSpecs(1), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{})
	defer s.Close()

	a := matrix.NewBlockMatrix(2, 3, 4)
	b := matrix.NewBlockMatrix(4, 2, 4) // b.Rows != a.Cols
	c := matrix.NewBlockMatrix(2, 2, 4)
	if _, err := s.Submit(a, b, c); err == nil {
		t.Error("mismatched shapes admitted")
	}
	b2 := matrix.NewBlockMatrix(3, 2, 8) // wrong q
	if _, err := s.Submit(a, b2, c); err == nil {
		t.Error("mismatched block edge admitted")
	}
}

// stalledWorkerOpts rigs worker i (for i < n) to stall mid-job: heartbeats
// keep flowing but no result comes for stallFor — the live-but-wedged case
// that only cancellation can end early.
func stalledWorkerOpts(stallSet map[int]bool, stallFor time.Duration) func(i int) mmnet.WorkerOptions {
	return func(i int) mmnet.WorkerOptions {
		o := mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if stallSet[i] {
			o.StallAfterInstalls = 1
			o.StallFor = stallFor
		}
		return o
	}
}

// TestCancelQueuedJobNeverLeases: cancelling a job that is still waiting in
// the admission queue dequeues it immediately — no lease is ever taken, the
// waiter gets an error wrapping context.Canceled, and the status records the
// canceled state with no workers.
func TestCancelQueuedJobNeverLeases(t *testing.T) {
	addrs := startWorkers(t, 2, stalledWorkerOpts(map[int]bool{0: true, 1: true}, 10*time.Second))
	f, err := NewFleet(addrs, homSpecs(2), FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})
	defer s.Close()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a1, b1, c1, _ := testMatrices(t, inst, 4, 501)
	a2, b2, c2, _ := testMatrices(t, inst, 4, 502)

	id1, err := s.Submit(a1, b1, c1) // leases the whole (stalled) fleet
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, id1, "running")
	id2, err := s.Submit(a2, b2, c2) // must queue: no idle workers remain
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = s.Wait(id2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-cancel wait returned %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("queued-cancel wait took %v, want immediate", elapsed)
	}
	for _, js := range s.Status().Jobs {
		if js.ID == id2 {
			if js.State != "canceled" {
				t.Errorf("queued-cancelled job state %q, want canceled", js.State)
			}
			if len(js.Workers) != 0 {
				t.Errorf("queued-cancelled job leased workers %v, want none", js.Workers)
			}
		}
	}
	// Unwedge the fleet so Close does not ride out the stall.
	if err := s.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id1); !errors.Is(err, context.Canceled) {
		t.Fatalf("running-cancel wait returned %v, want context.Canceled in the chain", err)
	}
}

// waitForState polls the server until job id reaches the given state.
func waitForState(t *testing.T, s *Server, id uint64, state string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, js := range s.Status().Jobs {
			if js.ID == id && js.State == state {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never reached state %q: %+v", id, state, s.Status().Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelRunningJobLeaseIsolation is the cancellation twin of the crash
// isolation test: cancelling a mid-run job under a stalled lease returns its
// workers to the fleet while the concurrent job on the disjoint lease runs
// to completion with a bitwise-identical C and undisturbed latency.
func TestCancelRunningJobLeaseIsolation(t *testing.T) {
	addrs := startWorkers(t, 4, stalledWorkerOpts(map[int]bool{0: true, 1: true}, 10*time.Second))
	f, err := NewFleet(addrs, homSpecs(4), FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 2, Logger: testLogger(t)})
	defer s.Close()

	inst := sched.Instance{R: 6, S: 9, T: 4}
	aS, bS, cS, _ := testMatrices(t, inst, 8, 601)     // stalled lease [0,1]
	aH, bH, cH, wantH := testMatrices(t, inst, 8, 602) // healthy lease [2,3]

	idS, err := s.Submit(aS, bS, cS)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, idS, "running")
	idH, err := s.Submit(aH, bH, cH)
	if err != nil {
		t.Fatal(err)
	}

	// Let the stalled lease reach its stall, then cancel it mid-run.
	time.Sleep(200 * time.Millisecond)
	if err := s.Cancel(idS); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = s.Wait(idS)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v to come back, want prompt abort", elapsed)
	}

	healthyStart := time.Now()
	if err := s.Wait(idH); err != nil {
		t.Fatalf("healthy concurrent job: %v", err)
	}
	if latency := time.Since(healthyStart); latency > 5*time.Second {
		t.Errorf("healthy job took %v after the foreign cancel; leases are not isolated", latency)
	}
	if d := cH.MaxAbsDiff(wantH); d != 0 {
		t.Errorf("healthy job's C perturbed by a foreign cancel: differs by %g (want bitwise equal)", d)
	}

	st := s.Status()
	for _, js := range st.Jobs {
		if js.ID == idS {
			if js.State != "canceled" {
				t.Errorf("cancelled job state %q, want canceled", js.State)
			}
			for _, w := range js.Workers {
				if w != 0 && w != 1 {
					t.Fatalf("test premise broken: stalled job leased %v, want subset of [0 1]", js.Workers)
				}
			}
		}
		if js.ID == idH {
			for _, w := range js.Workers {
				if w != 2 && w != 3 {
					t.Fatalf("test premise broken: healthy job leased %v, want subset of [2 3]", js.Workers)
				}
			}
		}
	}
	if st.Canceled != 1 {
		t.Errorf("stats count %d canceled jobs, want 1", st.Canceled)
	}
}

// TestCloseFailsQueuedJobsPromptly is the shutdown regression: a job parked
// in the queue behind a busy fleet must have its done channel failed by
// Close (with an error wrapping context.Canceled) the moment admission
// stops — not left for Wait to hang on until the running job drains.
func TestCloseFailsQueuedJobsPromptly(t *testing.T) {
	addrs := startWorkers(t, 1, stalledWorkerOpts(map[int]bool{0: true}, 3*time.Second))
	f, err := NewFleet(addrs, homSpecs(1), FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a1, b1, c1, _ := testMatrices(t, inst, 4, 701)
	a2, b2, c2, _ := testMatrices(t, inst, 4, 702)
	id1, err := s.Submit(a1, b1, c1) // occupies the 1-worker fleet, stalled
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, id1, "running")
	id2, err := s.Submit(a2, b2, c2) // queued behind it
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close() // blocks until the running job drains; queued jobs must not
		close(closed)
	}()

	start := time.Now()
	err = s.Wait(id2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job's Wait after Close returned %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("queued job's Wait returned %v after Close, want immediate failure", elapsed)
	}
	// The running job is not cancelled by Close; it rides out its stall (or
	// fails when its worker's session ends) and Close returns afterwards.
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
}

// TestWaitContext: an abandoned wait returns the waiter's context error
// without touching the job.
func TestWaitContext(t *testing.T) {
	addrs := startWorkers(t, 1, stalledWorkerOpts(map[int]bool{0: true}, 2*time.Second))
	f, err := NewFleet(addrs, homSpecs(1), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})
	defer s.Close()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a, b, c, want := testMatrices(t, inst, 4, 801)
	id, err := s.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.WaitContext(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned wait returned %v, want context.DeadlineExceeded", err)
	}
	// The job itself was not cancelled: it completes and verifies.
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs by %g after an abandoned wait", d)
	}
}

// TestClientCancelFrameAbortsJob drives the cancel path over the wire: a
// SubmitProduct whose context dies while the job is wedged mid-run
// must send the cancel frame, the daemon must abort the job's lease, and the
// client must come back promptly with the context error — while the daemon's
// stats record the cancel.
func TestClientCancelFrameAbortsJob(t *testing.T) {
	addrs := startWorkers(t, 2, stalledWorkerOpts(map[int]bool{0: true, 1: true}, 10*time.Second))
	f, err := NewFleet(addrs, homSpecs(2), FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ListenAndServe(ln)
	daemon := ln.Addr().String()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a, b, c, _ := testMatrices(t, inst, 8, 901)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond) // submit, lease, reach the stall
		cancel()
	}()
	start := time.Now()
	_, _, err = SubmitProduct(ctx, daemon, a, b, c, nil, ClassStandard)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission returned %v, want context.Canceled in the chain", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled submission took %v, want prompt return", elapsed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Status()
		if st.Canceled == 1 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recorded the cancel: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitCancelBeforeAccept: a deadline-less submission whose context is
// cancelled while the daemon is still mute (operands uploaded, no accept
// frame yet) must return promptly — the pre-accept watcher slams the
// connection; there is no job to cancel yet.
func TestSubmitCancelBeforeAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the upload, never answer: a wedged daemon.
			go func() {
				buf := make([]byte, 1<<16)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a, b, c, _ := testMatrices(t, inst, 4, 1001)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = SubmitProduct(ctx, ln.Addr().String(), a, b, c, nil, ClassStandard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-accept cancel returned %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-accept cancel took %v, want prompt return", elapsed)
	}
}

// TestPooledLinkBuffersOutliveCancels drives the two goroutines that outlive
// the function that took their buffer from the link pools — the client's
// cancel writer and the daemon's cancel reader — and then reuses the pools:
// submissions cancelled over the wire while they queue, then as many healthy
// ones at once, three times over. A cancelled one must say so, a healthy one
// must be bitwise right, and under the race detector a buffer handed back
// while still in use is a report.
func TestPooledLinkBuffersOutliveCancels(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	f, err := NewFleet(addrs, homSpecs(2), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})
	defer s.Close()
	daemon := startClientListener(t, s).Addr().String()
	a, b, c0, want := testMatrices(t, sched.Instance{R: 4, S: 6, T: 3}, 8, 1101)

	const clients = 4
	submitAll := func(ctx context.Context, check func(got *matrix.BlockMatrix, err error)) *sync.WaitGroup {
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := SubmitProduct(ctx, daemon, a, b, c0.Clone(), nil, ClassStandard)
				check(got, err)
			}()
		}
		return &wg
	}
	all := []int{0, 1}
	for round := 0; round < 3; round++ {
		// With the whole fleet held the submissions can only queue.
		hold, err := f.Lease(all)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		wg := submitAll(ctx, func(_ *matrix.BlockMatrix, err error) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled submission returned %v, want context.Canceled in the chain", err)
			}
		})
		for deadline := time.Now().Add(5 * time.Second); s.Status().Queued < clients; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d submissions queued", round, s.Status().Queued, clients)
			}
		}
		cancel()
		wg.Wait()
		f.Return(all, hold, false)
		s.kick()

		submitAll(context.Background(), func(got *matrix.BlockMatrix, err error) {
			if err != nil {
				t.Errorf("round %d: %v", round, err)
			} else if d := got.MaxAbsDiff(want); d != 0 {
				t.Errorf("round %d: C differs from the oracle by %g", round, d)
			}
		}).Wait()
	}
}
