package net

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/sched"
)

// TestElasticJoinAndDepartOverTCP is the acceptance scenario of the elastic
// runtime at the wire level: a job starts on two real TCP workers, one
// crashes mid-job (injected), a third joins mid-job via Master.AddWorker,
// and the job must finish with C bitwise-identical to the in-process
// engine's — the re-planned chunks write the same disjoint C regions through
// the same kernel order, whoever ends up computing them.
func TestElasticJoinAndDepartOverTCP(t *testing.T) {
	pl := platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 60},
		platform.Worker{C: 1.2, W: 1.1, M: 60},
	)
	inst := sched.Instance{R: 8, S: 12, T: 5}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 4

	a, b, cNet, want := testMatrices(t, inst, q, 33)
	_, _, cEng, _ := testMatrices(t, inst, q, 33)
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
		t.Fatal(err)
	}

	// Worker 1 crashes after two installments; workers 0 and 2 are healthy.
	// Worker 2 exists from the start but is dialed (and joined) only after
	// the departure is observed.
	addrs := startWorkers(t, 3, func(i int) WorkerOptions {
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 1 {
			o.CrashAfterInstalls = 2
		}
		return o
	})
	m, err := Dial(addrs[:2], &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	tr := adapt.NewTracker(pl.Workers, time.Microsecond, 0)
	join := make(chan int, 1)
	departed := make(chan struct{})
	var once sync.Once
	el := &engine.Elastic{
		Tracker: tr,
		Join:    join,
		OnReplan: func(reason string, _ int) {
			if reason == "depart" {
				once.Do(func() { close(departed) })
			}
		},
	}
	joinErr := make(chan error, 1)
	go func() {
		select {
		case <-departed:
		case <-time.After(30 * time.Second):
			joinErr <- context.DeadlineExceeded
			return
		}
		wc, err := DialWorker(addrs[2], &MasterOptions{IOTimeout: 10 * time.Second})
		if err != nil {
			joinErr <- err
			return
		}
		w, err := m.AddWorker(wc)
		if err != nil {
			joinErr <- err
			return
		}
		tr.Grow(platform.Worker{C: 1, W: 1, M: 60}, time.Microsecond)
		join <- w
		joinErr <- nil
	}()

	if err := m.Execute(context.Background(), inst.T, plan, a, b, cNet, engine.Options{Elastic: el}); err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("mid-job join: %v", err)
	}
	if d := cNet.MaxAbsDiff(cEng); d != 0 {
		t.Fatalf("elastic distributed C differs from in-process C by %g (want bitwise equal)", d)
	}
	if d := cNet.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("elastic distributed C differs from serial reference by %g", d)
	}
	// The estimates must reflect real observations on the surviving workers.
	if e := tr.Estimate(0); e.Transfers == 0 {
		t.Fatal("no transfer observations recorded for worker 0")
	}
}

// TestAddWorkerAfterDetach: a spent master must reject joins — the fleet
// will have pooled its connections already.
func TestAddWorkerAfterDetach(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	m, err := Dial(addrs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	conns := m.Detach()
	defer func() {
		for _, wc := range conns {
			if wc != nil {
				wc.Close()
			}
		}
	}()
	wc, err := DialWorker(addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if _, err := m.AddWorker(wc); err == nil {
		t.Fatal("AddWorker succeeded on a detached master")
	}
}

// TestElasticCancelReachesJoinedWorker: a connection joined mid-run must be
// slammed by a cancellation exactly like the original lease — a worker that
// joined after the run bound its context cannot be allowed to ride out a
// full IO timeout.
func TestElasticCancelReachesJoinedWorker(t *testing.T) {
	pl := platform.MustNew(platform.Worker{C: 1, W: 1, M: 60})
	inst := sched.Instance{R: 4, S: 6, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	q := 3
	a, b, c, _ := testMatrices(t, inst, q, 9)

	// Both workers stall long before the IO timeout would fire; only the
	// cancellation interrupt can end the run quickly.
	addrs := startWorkers(t, 2, func(i int) WorkerOptions {
		return WorkerOptions{
			Heartbeat:          50 * time.Millisecond,
			StallAfterInstalls: 1,
			StallFor:           time.Minute,
		}
	})
	m, err := Dial(addrs[:1], &MasterOptions{IOTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	tr := adapt.NewTracker(pl.Workers, time.Microsecond, 0)
	join := make(chan int, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- m.Execute(ctx, inst.T, res.Plan(), a, b, c, engine.Options{Elastic: &engine.Elastic{Tracker: tr, Join: join}})
	}()
	// Join the second worker while the first is stalled mid-job, then cancel:
	// the whole run — joined connection included — must unwind promptly.
	wc, err := DialWorker(addrs[1], &MasterOptions{IOTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.AddWorker(wc)
	if err != nil {
		t.Fatal(err)
	}
	tr.Ensure(w)
	join <- w // the executor re-plans onto the joined (equally stalled) worker
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled elastic run reported success")
		}
		if waited := time.Since(start); waited > 10*time.Second {
			t.Fatalf("cancellation took %v; the interrupt did not reach the run", waited)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled elastic run did not return")
	}
}
