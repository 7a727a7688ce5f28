package matmul

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math/rand"
	stdnet "net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
)

// tbWriter routes the daemon's structured log records into the test's log.
type tbWriter struct{ testing.TB }

func (w tbWriter) Write(p []byte) (int, error) {
	w.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// seeded builds the A, B, C operands of one product.
func seeded(t *testing.T, r, s, tt, q int, seed int64) (a, b, c *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a = NewMatrix(r, tt, q)
	b = NewMatrix(tt, s, q)
	c = NewMatrix(r, s, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	return
}

// engineReference computes the same product through the pre-redesign entry
// point (engine.Run over a scheduled plan) — the bitwise oracle every
// facade runtime must match.
func engineReference(t *testing.T, r, s, tt, q int, seed int64) *Matrix {
	t.Helper()
	a, b, c := seeded(t, r, s, tt, q, seed)
	pl := platform.Homogeneous(2, 1, 1, 60)
	res, err := sched.Het{}.Schedule(pl, sched.Instance{R: r, S: s, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(engine.Config{Workers: pl.P(), T: tt}, res.Plan(), a, b, c); err != nil {
		t.Fatal(err)
	}
	return c
}

// startWorkers launches n loopback mmworker serve loops.
func startWorkers(t *testing.T, n int, opts func(i int) mmnet.WorkerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
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

// startDaemon brings up a full mmserve daemon over a fresh loopback fleet
// and returns its client address.
func startDaemon(t *testing.T, workers int, opts func(i int) mmnet.WorkerOptions) string {
	t.Helper()
	addrs := startWorkers(t, workers, opts)
	fleet, err := serve.NewFleet(addrs, platform.Homogeneous(workers, 1, 1, 60).Workers,
		serve.FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	srv := serve.NewServer(fleet, serve.Config{MaxWorkersPerJob: 2, Logger: slog.New(slog.NewTextHandler(tbWriter{t}, nil))})
	t.Cleanup(srv.Close)
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ListenAndServe(ln)
	return ln.Addr().String()
}

// runtimes enumerates a Session per runtime over shared loopback
// infrastructure, for tests that must cover all three.
func runtimes(t *testing.T, workerOpts func(i int) mmnet.WorkerOptions) map[string][]Option {
	t.Helper()
	return map[string][]Option{
		"inprocess":   nil,
		"distributed": {WithRuntime(Distributed(startWorkers(t, 2, workerOpts)...))},
		"remote":      {WithRuntime(Remote(startDaemon(t, 2, workerOpts)))},
	}
}

// TestSessionAllRuntimesBitwiseIdentical is the acceptance check of the
// facade: the same product submitted through every runtime produces a C
// bitwise-identical to the pre-redesign entry point's.
func TestSessionAllRuntimesBitwiseIdentical(t *testing.T) {
	const r, s, tt, q, seed = 6, 9, 4, 8, 42
	want := engineReference(t, r, s, tt, q, seed)

	for name, opts := range runtimes(t, nil) {
		t.Run(name, func(t *testing.T) {
			sess, err := Open(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			a, b, c := seeded(t, r, s, tt, q, seed)
			job, err := sess.Submit(context.Background(), a, b, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := job.Status(); st.State != JobDone || st.Err != nil {
				t.Fatalf("status after success: %v / %v", st.State, st.Err)
			}
			if d := c.MaxAbsDiff(want); d != 0 {
				t.Errorf("C differs from the pre-redesign entry point by %g (want bitwise equal)", d)
			}
		})
	}
}

// TestSessionOptionsMatchDirectEngine drives the option surface (algorithm,
// platform, pacing, one-port, procs, sequential executor) and checks the
// result still matches a direct engine.Run with the same knobs bitwise.
func TestSessionOptionsMatchDirectEngine(t *testing.T) {
	const r, s, tt, q, seed = 5, 7, 3, 4, 7
	pl := platform.MustNew(
		Worker{C: 1, W: 1, M: 40},
		Worker{C: 2, W: 1.5, M: 24},
	)
	res, err := sched.BMM{}.Schedule(pl, sched.Instance{R: r, S: s, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	a, b, want := seeded(t, r, s, tt, q, seed)
	cfg := engine.Config{
		Workers: pl.P(), T: tt, Platform: pl, TimePerUnit: time.Microsecond,
		Pipelined: true, OnePort: true, Procs: 2,
	}
	if err := engine.Run(cfg, res.Plan(), a, b, want); err != nil {
		t.Fatal(err)
	}

	sess, err := Open(context.Background(),
		WithAlgorithm("BMM"),
		WithPlatform(pl.Workers...),
		WithPacing(time.Microsecond),
		WithOnePort(true),
		WithProcs(2),
		WithPipelined(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a2, b2, c2 := seeded(t, r, s, tt, q, seed)
	job, err := sess.Submit(context.Background(), a2, b2, c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := c2.MaxAbsDiff(want); d != 0 {
		t.Errorf("facade C differs from direct engine.Run by %g (want bitwise equal)", d)
	}
}

// TestJobCancelEveryRuntime cancels a mid-run job on each runtime and
// demands a prompt return with context.Canceled in the chain. In-process
// the job is slowed by paced transfers; the networked runtimes get a worker
// that stalls mid-job while heartbeating (the live-but-wedged case only
// cancellation can end).
func TestJobCancelEveryRuntime(t *testing.T) {
	stalled := func(i int) mmnet.WorkerOptions {
		return mmnet.WorkerOptions{
			Heartbeat:          50 * time.Millisecond,
			StallAfterInstalls: 1,
			StallFor:           30 * time.Second,
		}
	}
	cases := map[string][]Option{
		"inprocess":   {WithPacing(time.Millisecond)}, // plan paces for seconds
		"distributed": {WithRuntime(Distributed(startWorkers(t, 2, stalled)...))},
		"remote":      {WithRuntime(Remote(startDaemon(t, 2, stalled)))},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			sess, err := Open(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			a, b, c := seeded(t, 8, 16, 6, 8, 11)
			job, err := sess.Submit(context.Background(), a, b, c)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(300 * time.Millisecond)
				job.Cancel()
			}()
			start := time.Now()
			err = job.Wait(context.Background())
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled job returned %v, want context.Canceled in the chain", err)
			}
			if st := job.Status(); st.State != JobCanceled {
				t.Fatalf("cancelled job state %v, want canceled", st.State)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancelled job took %v to come back, want prompt abort", elapsed)
			}
			select {
			case <-job.Done():
			default:
				t.Fatal("Done channel not closed after terminal state")
			}
		})
	}
}

// TestSubmitCtxCancelPropagates: cancelling the Submit context (not calling
// Job.Cancel) cancels the job too — the SIGINT wiring of the cmds.
func TestSubmitCtxCancelPropagates(t *testing.T) {
	sess, err := Open(context.Background(), WithPacing(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	a, b, c := seeded(t, 8, 16, 6, 8, 13)
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx-cancelled job returned %v, want context.Canceled", err)
	}
}

// TestSessionCloseCancelsOutstandingJobs: Close is a graceful teardown, not
// a hang — outstanding jobs are cancelled and their waiters released.
func TestSessionCloseCancelsOutstandingJobs(t *testing.T) {
	sess, err := Open(context.Background(), WithPacing(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := seeded(t, 8, 16, 6, 8, 17)
	job, err := sess.Submit(context.Background(), a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("job after Close returned %v, want context.Canceled", err)
	}
	if _, err := sess.Submit(context.Background(), a, b, c); err == nil {
		t.Fatal("Submit on a closed session succeeded")
	}
}

// TestRemoteConcurrentJobs: a Remote session multiplexes concurrent jobs
// onto the daemon's disjoint leases; both verify bitwise and both report
// their daemon-side ids.
func TestRemoteConcurrentJobs(t *testing.T) {
	daemon := startDaemon(t, 4, nil)
	sess, err := Open(context.Background(), WithRuntime(Remote(daemon)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const r, s, tt, q = 6, 9, 4, 8
	type one struct {
		c    *Matrix
		want *Matrix
		job  *Job
	}
	jobs := make([]one, 2)
	for i := range jobs {
		seed := int64(100 + i)
		a, b, c := seeded(t, r, s, tt, q, seed)
		jobs[i] = one{c: c, want: engineReference(t, r, s, tt, q, seed)}
		job, err := sess.Submit(context.Background(), a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].job = job
	}
	for i, j := range jobs {
		if err := j.job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if d := j.c.MaxAbsDiff(j.want); d != 0 {
			t.Errorf("job %d: C differs by %g (want bitwise equal)", i, d)
		}
		if id := j.job.Status().RemoteID; id == 0 {
			t.Errorf("job %d: no daemon-side id recorded", i)
		}
	}
}

// TestOptionValidation pins the option/runtime compatibility matrix.
func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Open(ctx, WithAlgorithm("nope")); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Open(ctx, WithRuntime(Distributed())); err == nil {
		t.Error("Distributed with no addresses accepted")
	}
	if _, err := Open(ctx, WithRuntime(Distributed("127.0.0.1:1")), WithPacing(time.Millisecond)); err == nil {
		t.Error("WithPacing accepted on the Distributed runtime")
	}
	if _, err := Open(ctx, WithRuntime(Distributed("127.0.0.1:1")), WithProcs(4)); err == nil {
		t.Error("WithProcs accepted on the Distributed runtime")
	}
	if _, err := Open(ctx, WithRuntime(Distributed("127.0.0.1:1")), WithPipelined(false)); err == nil {
		t.Error("WithPipelined(false) accepted on the Distributed runtime")
	}
	if _, err := Open(ctx, WithRuntime(Remote("127.0.0.1:1")), WithAlgorithm("Het")); err == nil {
		t.Error("WithAlgorithm accepted on the Remote runtime")
	}
	if _, err := Open(ctx, WithRuntime(Remote(""))); err == nil {
		t.Error("Remote with empty address accepted")
	}
	sess, err := Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Submit(ctx, nil, nil, nil); err == nil {
		t.Error("nil operands accepted")
	}
	a := NewMatrix(2, 3, 4)
	b := NewMatrix(3, 2, 4)
	bad := NewMatrix(2, 2, 8)
	if _, err := sess.Submit(ctx, a, b, bad); err == nil {
		t.Error("mismatched block edges accepted")
	}
}

// TestMatrixAliasInterop: the facade's Matrix type is usable with the
// internal oracle directly (one type, no conversions), which is what makes
// the repo embeddable without exporting the internal packages.
func TestMatrixAliasInterop(t *testing.T) {
	var m *Matrix = matrix.NewBlockMatrix(2, 2, 4)
	if m.Rows != 2 || m.Q != 4 {
		t.Fatalf("alias mismatch: %dx%d q=%d", m.Rows, m.Cols, m.Q)
	}
}

// TestDistributedQueuedJobCancelPrompt: a job queued behind a Distributed
// session's in-flight job must observe cancellation immediately, not after
// the running job drains. One worker, so the second job can only queue.
func TestDistributedQueuedJobCancelPrompt(t *testing.T) {
	stalled := func(i int) mmnet.WorkerOptions {
		return mmnet.WorkerOptions{
			Heartbeat:          50 * time.Millisecond,
			StallAfterInstalls: 1,
			StallFor:           10 * time.Second,
		}
	}
	sess, err := Open(context.Background(), WithRuntime(Distributed(startWorkers(t, 1, stalled)...)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b, c := seeded(t, 6, 9, 4, 8, 21)
	running, err := sess.Submit(context.Background(), a, b, c) // wedges on the stall
	if err != nil {
		t.Fatal(err)
	}
	// Submit order does not promise dispatch order: let job one lease the
	// worker before job two exists.
	waitServerState(t, sess, running, "running")
	a2, b2, c2 := seeded(t, 6, 9, 4, 8, 22)
	queued, err := sess.Submit(context.Background(), a2, b2, c2)
	if err != nil {
		t.Fatal(err)
	}
	waitServerState(t, sess, queued, "queued")
	queued.Cancel()
	start := time.Now()
	if err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("queued job took %v to observe its cancel; must not wait for the running job", elapsed)
	}
	running.Cancel()
	if err := running.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("running job returned %v, want context.Canceled", err)
	}
}

// waitServerState polls a Distributed session's embedded server until job
// j is in state there.
func waitServerState(t *testing.T, sess *Session, j *Job, state string) {
	t.Helper()
	srv := sess.rts.(*distributedSession).srv
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		id := j.Status().RemoteID
		for _, js := range srv.Status().Jobs {
			if id != 0 && js.ID == id && js.State == state {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never reached state %s", id, state)
		}
	}
}

// TestDistributedSessionSurvivesAbortedJob: cancelling a job mid-run leaves
// a Distributed session usable — the aborted lease's workers are recycled
// and re-dialed, and the next job on the same session computes C bitwise.
func TestDistributedSessionSurvivesAbortedJob(t *testing.T) {
	stalled := func(i int) mmnet.WorkerOptions {
		return mmnet.WorkerOptions{
			Heartbeat:          50 * time.Millisecond,
			StallAfterInstalls: 1,
			StallFor:           time.Second,
		}
	}
	ctx := context.Background()
	sess, err := Open(ctx, WithRuntime(Distributed(startWorkers(t, 2, stalled)...)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b, c := seeded(t, 8, 16, 6, 8, 11)
	aborted, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	waitServerState(t, sess, aborted, "running")
	aborted.Cancel()
	if err := aborted.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}

	const r, s, tt, q, seed = 6, 9, 4, 8, 42
	want := engineReference(t, r, s, tt, q, seed)
	a, b, c = seeded(t, r, s, tt, q, seed)
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job after an aborted one: %v", err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("C after an aborted job differs by %g (want bitwise equal)", d)
	}
}

// TestDistributedOpenNamesUnreachableWorker: Open needs every worker, and
// its error says which one it could not reach. The reachable one is handed
// back to its daemon, which serves the next session.
func TestDistributedOpenNamesUnreachableWorker(t *testing.T) {
	live := startWorkers(t, 1, nil)[0]
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	ctx := context.Background()
	if _, err := Open(ctx, WithRuntime(Distributed(live, dead))); err == nil || !strings.Contains(err.Error(), dead) {
		t.Fatalf("Open with %s unreachable returned %v, want an error naming it", dead, err)
	}
	sess, err := Open(ctx, WithRuntime(Distributed(live)))
	if err != nil {
		t.Fatalf("the reachable worker was not handed back: %v", err)
	}
	sess.Close()
}

// TestDistributedDialsHonorCtx: Open and AddWorker dial within their
// context — a peer that accepts but never registers costs the caller's
// budget, not the dial timeout.
func TestDistributedDialsHonorCtx(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
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
	mute := ln.Addr().String()
	bounded := func(what string, dial func(ctx context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := dial(ctx); err == nil {
			t.Fatalf("%s of a mute peer succeeded", what)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("%s took %v, want it bounded by the 200ms context budget", what, elapsed)
		}
	}
	bounded("Open", func(ctx context.Context) error {
		_, err := Open(ctx, WithRuntime(Distributed(mute)))
		return err
	})
	sess, err := Open(context.Background(), WithRuntime(Distributed(startWorkers(t, 1, nil)...)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bounded("AddWorker", func(ctx context.Context) error {
		_, err := sess.AddWorker(ctx, mute)
		return err
	})
}
