package net

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
)

// startWorkers launches n loopback worker endpoints and returns their
// addresses. Each serves master sessions until the test ends.
func startWorkers(t *testing.T, n int, opts func(i int) WorkerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if opts != nil {
			o = opts(i)
		}
		go Serve(ln, addrs[i], o)
	}
	return addrs
}

// testMatrices builds random A, B, C plus the serial reference product.
func testMatrices(t *testing.T, inst sched.Instance, q int, seed int64) (a, b, c, want *matrix.BlockMatrix) {
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

// TestLoopbackMatchesEngineBitwise runs the same plan through the in-process
// engine and through TCP loopback workers and demands bitwise-identical C:
// both backends funnel through engine.Execute and engine.ApplyInstallment,
// so every floating-point operation happens in the same order.
func TestLoopbackMatchesEngineBitwise(t *testing.T) {
	pl := platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 40},
		platform.Worker{C: 2, W: 1.5, M: 24},
		platform.Worker{C: 1.5, W: 2, M: 60},
	)
	inst := sched.Instance{R: 7, S: 11, T: 5}
	for _, s := range []sched.Scheduler{sched.Het{}, sched.ODDOML{}, sched.BMM{}} {
		res, err := s.Schedule(pl, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		plan := res.Plan()
		q := 4

		a, b, cNet, want := testMatrices(t, inst, q, 21)
		_, _, cEng, _ := testMatrices(t, inst, q, 21)

		if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
			t.Fatalf("%s: engine: %v", s.Name(), err)
		}

		addrs := startWorkers(t, pl.P(), nil)
		m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("%s: dial: %v", s.Name(), err)
		}
		if err := m.RunContext(context.Background(), inst.T, plan, a, b, cNet); err != nil {
			t.Fatalf("%s: distributed run: %v", s.Name(), err)
		}
		if err := m.Shutdown(); err != nil {
			t.Errorf("%s: shutdown: %v", s.Name(), err)
		}

		if d := cNet.MaxAbsDiff(cEng); d != 0 {
			t.Errorf("%s: distributed C differs from in-process C by %g (want bitwise equal)", s.Name(), d)
		}
		if d := cNet.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("%s: distributed C differs from serial reference by %g", s.Name(), d)
		}
	}
}

// TestPipelinedLoopbackMatchesEngineBitwise runs the same plan through the
// sequential in-process engine and through the concurrent executor over TCP
// loopback (with the one-port send gate on, for good measure) and demands
// bitwise-identical C: per-worker dispatch goroutines change only when
// transfers happen, never the per-chunk arithmetic order.
func TestPipelinedLoopbackMatchesEngineBitwise(t *testing.T) {
	pl := platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 40},
		platform.Worker{C: 2, W: 1.5, M: 24},
		platform.Worker{C: 1.5, W: 2, M: 60},
	)
	inst := sched.Instance{R: 7, S: 11, T: 5}
	for _, s := range []sched.Scheduler{sched.Het{}, sched.ODDOML{}} {
		res, err := s.Schedule(pl, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		plan := res.Plan()
		q := 4

		a, b, cNet, want := testMatrices(t, inst, q, 63)
		_, _, cEng, _ := testMatrices(t, inst, q, 63)

		if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
			t.Fatalf("%s: engine: %v", s.Name(), err)
		}

		// Worker-side multicore kernels must not change results either.
		addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
			return WorkerOptions{Heartbeat: 50 * time.Millisecond, Procs: 2}
		})
		m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second, OnePort: true})
		if err != nil {
			t.Fatalf("%s: dial: %v", s.Name(), err)
		}
		if err := m.Execute(context.Background(), inst.T, plan, a, b, cNet, engine.Options{}); err != nil {
			t.Fatalf("%s: pipelined distributed run: %v", s.Name(), err)
		}
		if err := m.Shutdown(); err != nil {
			t.Errorf("%s: shutdown: %v", s.Name(), err)
		}

		if d := cNet.MaxAbsDiff(cEng); d != 0 {
			t.Errorf("%s: pipelined distributed C differs from in-process C by %g (want bitwise equal)", s.Name(), d)
		}
		if d := cNet.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("%s: pipelined distributed C differs from serial reference by %g", s.Name(), d)
		}
	}
}

// TestPipelinedWorkerCrashFailover kills a loopback TCP worker mid-pipeline
// (abrupt connection close after a few installments, while the other
// dispatch goroutines are in full flight) and checks the concurrent
// executor's parallel replay waves still produce the serial product. CI runs
// this under -race, which is the real point: worker death exercises the
// retire/orphan/replay paths concurrently with healthy dispatch goroutines.
func TestPipelinedWorkerCrashFailover(t *testing.T) {
	pl := platform.Homogeneous(3, 1, 1, 40)
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}

	for victim := 0; victim < pl.P(); victim++ {
		a, b, c, want := testMatrices(t, inst, 3, int64(71+victim))
		addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
			o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
			if i == victim {
				o.CrashAfterInstalls = 2
			}
			return o
		})
		m, err := Dial(addrs, &MasterOptions{IOTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("victim %d: dial: %v", victim, err)
		}
		if err := m.Execute(context.Background(), inst.T, res.Plan(), a, b, c, engine.Options{}); err != nil {
			t.Fatalf("victim %d: pipelined run did not survive the crash: %v", victim, err)
		}
		if err := m.Shutdown(); err != nil {
			t.Logf("victim %d: shutdown: %v (expected: one link is dead)", victim, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("victim %d: C wrong by %g after pipelined failover", victim, d)
		}
	}
}

// TestWorkerCrashFailover kills one worker mid-run (abrupt connection close
// after a few installments) and checks the survivors complete the product
// correctly via the executor's job replay.
func TestWorkerCrashFailover(t *testing.T) {
	pl := platform.Homogeneous(3, 1, 1, 40)
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}

	for victim := 0; victim < pl.P(); victim++ {
		a, b, c, want := testMatrices(t, inst, 3, int64(31+victim))
		addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
			o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
			if i == victim {
				o.CrashAfterInstalls = 2
			}
			return o
		})
		m, err := Dial(addrs, &MasterOptions{IOTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("victim %d: dial: %v", victim, err)
		}
		if err := m.RunContext(context.Background(), inst.T, res.Plan(), a, b, c); err != nil {
			t.Fatalf("victim %d: run did not survive the crash: %v", victim, err)
		}
		if err := m.Shutdown(); err != nil {
			t.Logf("victim %d: shutdown: %v (expected: one link is dead)", victim, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("victim %d: C wrong by %g after failover", victim, d)
		}
	}
}

// TestWorkerKillMidRunViaConnDrop drops a worker by closing its listener and
// live connection from outside — the closest a test gets to kill -9 — and
// checks the run still completes.
func TestWorkerKillMidRunViaConnDrop(t *testing.T) {
	pl := platform.Homogeneous(2, 1, 1, 40)
	inst := sched.Instance{R: 4, S: 6, T: 3}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, want := testMatrices(t, inst, 3, 47)

	// Worker 0 is normal; worker 1 crashes after its first installment.
	addrs := startWorkers(t, 2, func(i int) WorkerOptions {
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 1 {
			o.CrashAfterInstalls = 1
		}
		return o
	})
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunContext(context.Background(), inst.T, res.Plan(), a, b, c); err != nil {
		t.Fatalf("run: %v", err)
	}
	m.Shutdown()
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("C wrong by %g", d)
	}
}

// TestIdleClientCannotWedgeWorker connects a mute client to a worker and
// checks the idle timeout frees the (sequential) serve loop for a real
// master afterwards.
func TestIdleClientCannotWedgeWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, "wedgeable", WorkerOptions{Heartbeat: 50 * time.Millisecond, IdleTimeout: 200 * time.Millisecond})

	mute, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	time.Sleep(100 * time.Millisecond) // let the worker accept the mute session

	m, err := Dial([]string{ln.Addr().String()}, &MasterOptions{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("real master starved behind a mute client: %v", err)
	}
	defer m.Close()

	pl := platform.Homogeneous(1, 1, 1, 40)
	inst := sched.Instance{R: 2, S: 2, T: 2}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, want := testMatrices(t, inst, 2, 53)
	if err := m.RunContext(context.Background(), inst.T, res.Plan(), a, b, c); err != nil {
		t.Fatalf("run after mute client: %v", err)
	}
	m.Shutdown()
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("C wrong by %g", d)
	}
}

// TestDialRejectsSilentPeer ensures a listener that never registers is
// reported instead of hanging the master forever.
func TestDialRejectsSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(2 * time.Second) // never send hello
		}
	}()
	if _, err := Dial([]string{ln.Addr().String()}, &MasterOptions{DialTimeout: 300 * time.Millisecond}); err == nil {
		t.Fatal("silent peer accepted as a worker")
	}
}

// TestMasterReleaseWorkerReregisters releases a worker (session over, daemon
// alive) and immediately dials it again: the serve loop must hand the next
// master a fresh registration, and the re-registered worker must run a job.
func TestMasterReleaseWorkerReregisters(t *testing.T) {
	addrs := startWorkers(t, 1, nil)
	pl := platform.Homogeneous(1, 1, 1, 40)
	inst := sched.Instance{R: 2, S: 3, T: 2}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		m, err := Dial(addrs, &MasterOptions{DialTimeout: 5 * time.Second, IOTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("round %d: dial after release: %v", round, err)
		}
		a, b, c, want := testMatrices(t, inst, 3, int64(90+round))
		if err := m.Execute(context.Background(), inst.T, res.Plan(), a, b, c, engine.Options{}); err != nil {
			t.Fatalf("round %d: run: %v", round, err)
		}
		if err := m.Release(); err != nil {
			t.Fatalf("round %d: release: %v", round, err)
		}
		if err := m.Release(); err != nil {
			t.Fatalf("round %d: second release not idempotent: %v", round, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("round %d: C wrong by %g", round, d)
		}
	}
}

// TestShutdownIdempotent calls Shutdown repeatedly and after Close/Detach:
// every call past the first must find no links and return nil.
func TestShutdownIdempotent(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatalf("second shutdown not idempotent: %v", err)
	}

	m2, err := Dial(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	conns := m2.Detach()
	if err := m2.Shutdown(); err != nil {
		t.Fatalf("shutdown after detach must be a no-op: %v", err)
	}
	for _, wc := range conns {
		if wc == nil || !wc.Alive() {
			t.Fatal("detach returned a dead conn from a healthy master")
		}
		wc.Close()
	}
}

// TestMasterReuseAcrossJobs runs two different products back to back over one
// master without re-dialing: the reusable-backend contract — a successful
// execution leaves every worker session idle — is what a job-queue service
// leases against, so it is asserted here at the net level.
func TestMasterReuseAcrossJobs(t *testing.T) {
	pl := platform.Homogeneous(2, 1, 1, 40)
	addrs := startWorkers(t, 2, nil)
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i, inst := range []sched.Instance{{R: 4, S: 6, T: 3}, {R: 3, S: 5, T: 4}} {
		res, err := sched.Het{}.Schedule(pl, inst)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c, want := testMatrices(t, inst, 3, int64(101+i))
		if err := m.Execute(context.Background(), inst.T, res.Plan(), a, b, c, engine.Options{}); err != nil {
			t.Fatalf("job %d on reused master: %v", i, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("job %d: C wrong by %g", i, d)
		}
	}
	if err := m.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestDetachedConnSurvivesIdleAndReruns parks a detached conn past the
// worker's idle timeout, keeping it alive with Ping and draining the worker's
// accumulated heartbeats, then leases it to a new master and runs a job — the
// pooled-connection lifecycle of a long-lived service, minus the service.
func TestDetachedConnSurvivesIdleAndReruns(t *testing.T) {
	addrs := startWorkers(t, 1, func(i int) WorkerOptions {
		return WorkerOptions{Heartbeat: 20 * time.Millisecond, IdleTimeout: 250 * time.Millisecond}
	})
	wc, err := DialWorker(addrs[0], &MasterOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Idle for 2× the worker's idle timeout, pinging under it.
	for i := 0; i < 5; i++ {
		time.Sleep(100 * time.Millisecond)
		if err := wc.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if err := wc.DrainBacklog(); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}

	m, err := NewMaster([]*WorkerConn{wc}, &MasterOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.Homogeneous(1, 1, 1, 40)
	inst := sched.Instance{R: 2, S: 3, T: 2}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, want := testMatrices(t, inst, 3, 113)
	if err := m.Execute(context.Background(), inst.T, res.Plan(), a, b, c, engine.Options{}); err != nil {
		t.Fatalf("run on kept-alive conn: %v", err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("C wrong by %g", d)
	}
	conns := m.Detach()
	if len(conns) != 1 || conns[0] == nil {
		t.Fatal("healthy conn lost at detach")
	}
	if err := conns[0].Release(); err != nil {
		t.Errorf("release: %v", err)
	}
}

// TestRunContextCancelPromptOnStalledWorker: a worker that stalls mid-job
// (heartbeats flowing, no result — the case neither IOTimeout nor the crash
// failover ends early) blocks RecvC for the whole stall. Cancelling the run
// context must interrupt the parked socket read immediately, for both
// executors, and surface context.Canceled.
func TestRunContextCancelPromptOnStalledWorker(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		addrs := startWorkers(t, 2, func(i int) WorkerOptions {
			o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
			if i == 0 {
				o.StallAfterInstalls = 1
				o.StallFor = 30 * time.Second
			}
			return o
		})
		pl := platform.Homogeneous(2, 1, 1, 60)
		inst := sched.Instance{R: 4, S: 8, T: 3}
		res, err := sched.Het{}.Schedule(pl, inst)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c, _ := testMatrices(t, inst, 4, 33)

		m, err := Dial(addrs, &MasterOptions{IOTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(300 * time.Millisecond) // let the stalled worker reach its stall
			cancel()
		}()
		start := time.Now()
		if pipelined {
			err = m.Execute(ctx, inst.T, res.Plan(), a, b, c, engine.Options{})
		} else {
			err = m.RunContext(ctx, inst.T, res.Plan(), a, b, c)
		}
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("pipelined=%v: cancelled distributed run returned nil", pipelined)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pipelined=%v: cancelled run returned %v, want context.Canceled in the chain", pipelined, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("pipelined=%v: cancelled run took %v, want prompt return", pipelined, elapsed)
		}
	}
}

// TestDialContextHonorsDeadline: a dial budgeted well below DialTimeout must
// give up within the context budget, not the configured 10s default.
func TestDialContextHonorsDeadline(t *testing.T) {
	// A listener that accepts but never sends a hello: the registration read
	// is what must be bounded by the context deadline.
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
			defer conn.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialContext(ctx, []string{ln.Addr().String()}, nil)
	if err == nil {
		t.Fatal("dial of a mute peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial took %v, want it bounded by the 200ms context budget", elapsed)
	}
}
