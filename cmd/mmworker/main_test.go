package main

import (
	"context"
	"math/rand"
	stdnet "net"
	"testing"
	"time"

	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
)

// TestServeOneSession drives a full master session against the daemon's
// serve loop: schedule, execute over loopback TCP, verify, shut down. The
// serve call must return once its single session ends.
func TestServeOneSession(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- serve(ln, "test-worker", 50*time.Millisecond, 0, 1, 2, 16, nil) }()

	pl := platform.Homogeneous(1, 1, 1, 40)
	inst := sched.Instance{R: 3, S: 4, T: 2}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	q := 3
	rng := rand.New(rand.NewSource(5))
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	b := matrix.NewBlockMatrix(inst.T, inst.S, q)
	c := matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		t.Fatal(err)
	}

	m, err := mmnet.Dial([]string{ln.Addr().String()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := m.WorkerNames(); len(names) != 1 || names[0] != "test-worker" {
		t.Errorf("registered names = %v", names)
	}
	if err := m.RunContext(context.Background(), inst.T, res.Plan(), a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("C wrong by %g", d)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("serve did not return after its single session")
	}
}
