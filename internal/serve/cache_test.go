package serve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
)

// oracleC runs the in-process engine over clones and returns the bitwise
// reference C for C += A·B.
func oracleC(t *testing.T, a, b, c *matrix.BlockMatrix) *matrix.BlockMatrix {
	t.Helper()
	inst := sched.Instance{R: c.Rows, S: c.Cols, T: a.Cols}
	pl := platform.Homogeneous(2, 1, 1, 40)
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Clone()
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, res.Plan(), a.Clone(), b.Clone(), want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSelectResourcesAffinityBias pins down the selection contract: affinity
// breaks ties between equal workers, wins when communication dominates, and
// never overrides a decisive compute-speed gap — it discounts only the comm
// term of the w+2c proxy.
func TestSelectResourcesAffinityBias(t *testing.T) {
	inst := sched.Instance{R: 4, S: 4, T: 3}

	// Identical twins: the warm cache breaks the tie...
	twins := []platform.Worker{{C: 1, W: 1, M: 40}, {C: 1, W: 1, M: 40}}
	sel, err := SelectResources(twins, []int{0, 1}, 1, inst, nil, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 1 || sel.Workers[0] != 1 {
		t.Errorf("tie with warm worker 1: leased %v, want [1]", sel.Workers)
	}
	// ...while no affinity keeps the deterministic index order.
	sel, err = SelectResources(twins, []int{0, 1}, 1, inst, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 1 || sel.Workers[0] != 0 {
		t.Errorf("tie without affinity: leased %v, want [0]", sel.Workers)
	}

	// A bias, not an override: a fully warm but much slower worker loses to
	// a cold fast one (w=6 beats w=1+2c=3 even with the comm term zeroed).
	slowWarm := []platform.Worker{{C: 1, W: 1, M: 40}, {C: 1, W: 6, M: 40}}
	sel, err = SelectResources(slowWarm, []int{0, 1}, 1, inst, nil, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 1 || sel.Workers[0] != 0 {
		t.Errorf("slow warm worker outranked fast cold one: leased %v, want [0]", sel.Workers)
	}

	// Communication-dominated: residency erases a slow link, so the warm
	// worker with C=4 (proxy 1+0) beats the cold one with C=1 (proxy 1+2).
	slowLink := []platform.Worker{{C: 4, W: 1, M: 40}, {C: 1, W: 1, M: 40}}
	sel, err = SelectResources(slowLink, []int{0, 1}, 1, inst, nil, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 1 || sel.Workers[0] != 0 {
		t.Errorf("warm slow-link worker not preferred: leased %v, want [0]", sel.Workers)
	}
}

// TestServerCacheAffinitySavesBytes drives a repeated-operand workload (one
// shared A, fresh B per job) through a caching server: after the seeding
// job, residency must save A bytes on every later lease, the service
// snapshot must surface the savings, and every C stays bitwise-equal to the
// in-process engine.
func TestServerCacheAffinitySavesBytes(t *testing.T) {
	addrs := startWorkers(t, 4, func(i int) mmnet.WorkerOptions {
		return mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(0)}
	})
	f, err := NewFleet(addrs, homSpecs(4), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})
	defer s.Close()

	inst := sched.Instance{R: 6, S: 8, T: 4}
	q := 4
	rng := rand.New(rand.NewSource(700))
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	a.FillRandom(rng)

	for job := 0; job < 4; job++ {
		b := matrix.NewBlockMatrix(inst.T, inst.S, q)
		c := matrix.NewBlockMatrix(inst.R, inst.S, q)
		b.FillRandom(rng)
		c.FillRandom(rng)
		want := oracleC(t, a, b, c)
		id, err := s.Submit(a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(id); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if d := c.MaxAbsDiff(want); d != 0 {
			t.Errorf("job %d: C differs from engine C by %g (want bitwise equal)", job, d)
		}
	}

	st := s.Status()
	if st.Cache == nil {
		t.Fatal("caching server reported no cache totals")
	}
	if st.Cache.ASavedBytes == 0 {
		t.Errorf("no A bytes saved across %+v", st.Cache)
	}
	if st.Cache.ResidentBytes == 0 {
		t.Error("no resident panel bytes after four identical-A jobs")
	}
	someResident := false
	for _, w := range st.Workers {
		if w.ResidentBytes > 0 {
			someResident = true
		}
	}
	if !someResident {
		t.Error("no worker row reports resident panels")
	}
}

// TestServerRedialInvalidatesResidency checks the crash-consistency fix: a
// worker whose session is recycled (the path every crash and keepalive loss
// funnels through) must lose its registry residency, because its re-dialed
// session starts with whatever cache the daemon kept — unknown to us.
func TestServerRedialInvalidatesResidency(t *testing.T) {
	addrs := startWorkers(t, 2, func(i int) mmnet.WorkerOptions {
		return mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(0)}
	})
	f, err := NewFleet(addrs, homSpecs(2), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f, Config{Logger: testLogger(t)})
	defer s.Close()

	a, b, c, want := testMatrices(t, sched.Instance{R: 4, S: 6, T: 3}, 4, 710)
	id, err := s.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs from engine C by %g", d)
	}

	victim := -1
	for i := 0; i < 2; i++ {
		if _, bytes := s.registry.Resident(i); bytes > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no worker gained residency from the seeding job")
	}

	// Recycle the victim's session the way a failed run would: Return with
	// failed=true downs the worker, which must fire the invalidation hook.
	m, err := f.Lease([]int{victim})
	if err != nil {
		t.Fatal(err)
	}
	f.Return([]int{victim}, m, true)
	if panels, bytes := s.registry.Resident(victim); panels != 0 || bytes != 0 {
		t.Errorf("worker %d still holds %d panels / %d bytes after its session was recycled", victim, panels, bytes)
	}
}
