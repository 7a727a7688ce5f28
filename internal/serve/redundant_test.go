package serve

import (
	"context"
	"net"
	"testing"
	"time"

	mmnet "repro/internal/net"
	"repro/internal/sched"
)

// TestDaemonRedundancyStatsAndTrace drives a redundant daemon end to end over
// the client protocol: the product must stay correct, the daemon and job
// status must surface the k-of-n gate mode and outcome, and the job's trace
// must be fetchable over the wire once the lease ends.
func TestDaemonRedundancyStatsAndTrace(t *testing.T) {
	addrs := startWorkers(t, 3, nil)
	f, err := NewFleet(addrs, homSpecs(3), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 3, Redundancy: "replicated", RedundancyFactor: 2, Logger: testLogger(t)})
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ListenAndServe(ln)
	daemon := ln.Addr().String()

	inst := sched.Instance{R: 5, S: 7, T: 3}
	a, b, c, want := testMatrices(t, inst, 8, 700)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, id, err := SubmitProduct(ctx, daemon, a, b, c, nil, ClassStandard)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs from in-process engine by %g (want bitwise equal: replicated mode commits only systematic results)", d)
	}

	st, err := FetchStats(daemon, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Redundancy != "replicated" {
		t.Errorf("daemon stats report redundancy %q, want replicated", st.Redundancy)
	}
	var found bool
	for _, js := range st.Jobs {
		if js.ID != id {
			continue
		}
		found = true
		if js.Redundancy == nil {
			t.Fatalf("job %d finished with no redundancy outcome", id)
		}
		if js.Redundancy.Mode != "replicated" {
			t.Errorf("job %d gate mode %q, want replicated", id, js.Redundancy.Mode)
		}
	}
	if !found {
		t.Fatalf("job %d missing from daemon stats", id)
	}
	tr, err := FetchTraceContext(ctx, daemon, id)
	if err != nil {
		t.Fatalf("trace fetch: %v", err)
	}
	if len(tr.Transfers) == 0 {
		t.Error("fetched trace has no transfers")
	}
	if _, err := FetchTraceContext(ctx, daemon, id+999); err == nil {
		t.Error("trace fetch for unknown job succeeded")
	}
}

// TestDaemonRedundancyAutoFactor: RedundancyFactor ≤ 0 lets the measured
// estimates suggest r; with no history the floor of 1 applies and the job
// must still run correctly under the gate.
func TestDaemonRedundancyAutoFactor(t *testing.T) {
	addrs := startWorkers(t, 3, nil)
	f, err := NewFleet(addrs, homSpecs(3), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 3, Redundancy: "coded", Logger: testLogger(t)})
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ListenAndServe(ln)
	daemon := ln.Addr().String()

	inst := sched.Instance{R: 5, S: 7, T: 3}
	a, b, c, want := testMatrices(t, inst, 8, 701)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, id, err := SubmitProduct(ctx, daemon, a, b, c, nil, ClassStandard)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("C differs from reference by %g", d)
	}
	st, err := FetchStats(daemon, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range st.Jobs {
		if js.ID == id && js.Redundancy == nil {
			t.Errorf("job %d ran without a redundancy outcome despite daemon-wide coded mode", id)
		}
	}
}

// TestDaemonRedundancyAbsorbsStalledWorker is the daemon-level acceptance
// drill: one fleet worker goes glacial mid-job, and a redundant lease must
// complete correctly well before the stall (or any heartbeat timeout) runs
// out, recording the absorbed straggler in the job's gate outcome.
func TestDaemonRedundancyAbsorbsStalledWorker(t *testing.T) {
	const stallFor = 30 * time.Second
	addrs := startWorkers(t, 3, func(i int) mmnet.WorkerOptions {
		o := mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 0 {
			o.StallAfterInstalls = 1
			o.StallFor = stallFor
		}
		return o
	})
	f, err := NewFleet(addrs, homSpecs(3), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{MaxWorkersPerJob: 3, Redundancy: "replicated", RedundancyFactor: 3, Logger: testLogger(t)})
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ListenAndServe(ln)
	daemon := ln.Addr().String()

	inst := sched.Instance{R: 5, S: 7, T: 3}
	a, b, c, want := testMatrices(t, inst, 8, 702)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, id, err := SubmitProduct(ctx, daemon, a, b, c, nil, ClassStandard)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > stallFor/2 {
		t.Fatalf("redundant lease took %v; the straggler was waited out instead of absorbed", elapsed)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs from in-process engine by %g (want bitwise equal)", d)
	}
	st, err := FetchStats(daemon, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range st.Jobs {
		if js.ID == id && js.Redundancy != nil && js.Redundancy.Absorbed == 0 {
			t.Errorf("job %d gate outcome records no absorbed straggler: %+v", id, js.Redundancy)
		}
	}
}
