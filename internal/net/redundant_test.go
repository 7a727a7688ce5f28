package net

import (
	"context"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestRedundantLoopbackAbsorbsStalledWorker is the wire-level straggler
// drill: one TCP worker goes glacial after its first installment (heartbeats
// keep beating, so neither IOTimeout nor crash failover would ever fire),
// every job carries a planned replica, and the k-of-n gate must finish the
// product through the replicas — wire-cancelling the straggler's unit rather
// than serving out its stall or its heartbeat timeout. Every committed result
// is systematic, so C must stay bitwise-identical to the in-process engine.
func TestRedundantLoopbackAbsorbsStalledWorker(t *testing.T) {
	const stallFor = 30 * time.Second
	addrs := startWorkers(t, 3, func(i int) WorkerOptions {
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 0 {
			o.StallAfterInstalls = 1
			o.StallFor = stallFor
		}
		return o
	})
	pl := platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 40},
		platform.Worker{C: 2, W: 1.5, M: 24},
		platform.Worker{C: 1.5, W: 2, M: 60},
	)
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	a, b, c, want := testMatrices(t, inst, 4, 91)
	_, _, base, _ := testMatrices(t, inst, 4, 91)
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T, Pipelined: true}, plan, a, b, base); err != nil {
		t.Fatal(err)
	}

	red := &engine.Redundancy{Mode: "replicated"}
	for ji, j := range jobs {
		red.Units = append(red.Units, engine.RedundantUnit{Worker: (j.Worker + 1) % pl.P(), Job: ji})
	}

	m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	if err := m.Execute(context.Background(), inst.T, plan, a, b, c, engine.Options{Redundancy: red}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > stallFor/2 {
		t.Fatalf("run took %v; the straggler was waited out instead of absorbed", elapsed)
	}
	if d := c.MaxAbsDiff(base); d != 0 {
		t.Fatalf("C differs from in-process engine by %g (want bitwise equal)", d)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("C differs from serial reference by %g", d)
	}
	st := red.Stats()
	if st.Absorbed == 0 {
		t.Errorf("straggler never recorded as absorbed (stats %+v)", st)
	}
	if st.Units == 0 {
		t.Errorf("no redundant units dispatched (stats %+v)", st)
	}
}

// TestRedundantLoopbackCancelKeepsHealthyLink: a laggard that wakes within
// the cancel grace must ack the cancel and survive — the same master then
// runs a second product over the same links, which only works if the ack
// handshake left every stream at a clean frame boundary. This pins the
// clean-cancel path (ack or raced result) as non-destructive.
func TestRedundantLoopbackCancelKeepsHealthyLink(t *testing.T) {
	addrs := startWorkers(t, 3, func(i int) WorkerOptions {
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 0 {
			// Briefly slow, not stalled: shorter than the ~300ms cancel grace,
			// so any cancel sent mid-nap is answered by the ack, never by the
			// link being retired.
			o.StallAfterInstalls = 1
			o.StallFor = 100 * time.Millisecond
		}
		return o
	})
	pl := platform.Homogeneous(3, 1, 1, 60)
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Hom{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for round, seed := range []int64{92, 93} {
		a, b, c, want := testMatrices(t, inst, 4, seed)
		red := &engine.Redundancy{Mode: "replicated"}
		for ji, j := range jobs {
			red.Units = append(red.Units, engine.RedundantUnit{Worker: (j.Worker + 1) % pl.P(), Job: ji})
		}
		if err := m.Execute(context.Background(), inst.T, plan, a, b, c, engine.Options{Redundancy: red}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("round %d: C wrong by %g", round, d)
		}
	}
	if got := m.Workers(); got != 3 {
		t.Errorf("after duplicate races: %d live workers, want 3 (healthy links must survive cancels)", got)
	}
}
