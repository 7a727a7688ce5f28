package serve

import (
	"context"
	"net"
	"testing"
	"time"

	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
)

// startClientListener serves the client protocol for one test server.
func startClientListener(t *testing.T, s *Server) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ListenAndServe(ln)
	return ln
}

// TestAdaptiveServerTracksEstimates: an adaptive server's jobs feed the
// estimate tracker, and the status snapshot reports live measured costs for
// every worker that participated.
func TestAdaptiveServerTracksEstimates(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	fleet, err := NewFleet(addrs, homSpecs(2), FleetOptions{Keepalive: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	srv := NewServer(fleet, Config{Adaptive: true})
	defer srv.Close()

	inst := sched.Instance{R: 6, S: 9, T: 4}
	a, b, c, want := testMatrices(t, inst, 4, 71)
	id, err := srv.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(id); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Fatalf("adaptive C differs from in-process C by %g (want bitwise equal)", d)
	}

	st := srv.Status()
	if !st.Adaptive {
		t.Fatal("status does not report the adaptive mode")
	}
	sampled := 0
	for _, w := range st.Workers {
		if w.Samples > 0 {
			if w.EstC <= 0 || w.EstW < 0 {
				t.Fatalf("worker %s has samples but degenerate estimates: %+v", w.Addr, w)
			}
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("no worker carries measured estimates after a completed job")
	}
}

// TestFleetAddAfterStartup: a worker registered after the fleet came up is
// leasable — a job submitted to a one-worker fleet that has just grown to
// two can select (and use) the newcomer.
func TestFleetAddAfterStartup(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	fleet, err := NewFleet(addrs[:1], homSpecs(1), FleetOptions{Keepalive: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if got := fleet.Size(); got != 1 {
		t.Fatalf("fleet size %d, want 1", got)
	}
	i, err := fleet.Add(addrs[1], platform.Worker{C: 1, W: 1, M: 40})
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 || fleet.Size() != 2 {
		t.Fatalf("Add returned %d, size %d", i, fleet.Size())
	}
	// Duplicate registration is rejected.
	if _, err := fleet.Add(addrs[1], platform.Worker{C: 1, W: 1, M: 40}); err == nil {
		t.Fatal("duplicate Add succeeded")
	}

	// The joined worker is immediately idle and leasable.
	idle := fleet.Idle()
	if len(idle) != 2 {
		t.Fatalf("idle = %v, want both workers", idle)
	}
	m, err := fleet.Lease([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Return([]int{1}, m, false)
}

// TestJoinFleetOverWire: the cJoin client frame registers a worker with a
// running daemon (the wire path behind mmworker -join) and a subsequent
// submission can run on the grown fleet.
func TestJoinFleetOverWire(t *testing.T) {
	addrs := startWorkers(t, 3, nil)
	fleet, err := NewFleet(addrs[:2], homSpecs(2), FleetOptions{Keepalive: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	srv := NewServer(fleet, Config{Adaptive: true})
	defer srv.Close()
	ln := startClientListener(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	i, err := JoinFleet(ctx, ln.Addr().String(), addrs[2], platform.Worker{C: 1, W: 1, M: 40})
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Fatalf("joined as index %d, want 2", i)
	}
	// A rejected duplicate surfaces as an error frame.
	if _, err := JoinFleet(ctx, ln.Addr().String(), addrs[2], platform.Worker{C: 1, W: 1, M: 40}); err == nil {
		t.Fatal("duplicate wire join succeeded")
	}

	inst := sched.Instance{R: 6, S: 9, T: 4}
	a, b, c, want := testMatrices(t, inst, 4, 72)
	out, _, err := SubmitProduct(ctx, ln.Addr().String(), a, b, c, nil, ClassStandard)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(want); d != 0 {
		t.Fatalf("C differs from in-process C by %g (want bitwise equal)", d)
	}
	if got := srv.Status(); len(got.Workers) != 3 {
		t.Fatalf("status shows %d workers after wire join, want 3", len(got.Workers))
	}
}

// TestAttachIdleWorkerToRunningJob: a worker that joins while a lease is
// running — and no job is queued — is attached to that lease mid-job, and
// the job still completes bitwise-identical.
func TestAttachIdleWorkerToRunningJob(t *testing.T) {
	// Worker 0 serves normally; worker 1 joins after the job started. The
	// job runs long enough to observe the attach because worker 0 stalls
	// briefly mid-job (live, heartbeating, just slow).
	addrs := startWorkers(t, 2, func(i int) mmnet.WorkerOptions {
		o := mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 0 {
			o.StallAfterInstalls, o.StallFor = 2, 2*time.Second
		}
		return o
	})
	fleet, err := NewFleet(addrs[:1], homSpecs(1), FleetOptions{Keepalive: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	srv := NewServer(fleet, Config{Adaptive: true})
	defer srv.Close()

	inst := sched.Instance{R: 8, S: 12, T: 4}
	a, b, c, want := testMatrices(t, inst, 4, 73)
	id, err := srv.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, srv, id, "running")
	if _, err := srv.AddWorker(addrs[1], platform.Worker{C: 1, W: 1, M: 40}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(id); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Fatalf("C differs from in-process C by %g (want bitwise equal)", d)
	}
	// The worker joined the fleet; whether it reached this job's lease in
	// time is a race the runtime may legitimately lose, but the fleet must
	// know it either way and the job must have seen at most sane re-plans.
	st := srv.Status()
	if len(st.Workers) != 2 {
		t.Fatalf("status shows %d workers, want 2", len(st.Workers))
	}
	for _, js := range st.Jobs {
		if js.ID == id && len(js.Workers) > 1 {
			t.Logf("mid-job attach landed: lease %v, %d replans", js.Workers, js.Replans)
		}
	}
}
