package serve

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
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

// TestRecycledPanelsStayBitwise is the safety test of the worker caches'
// place in the block cycle: evicted panels go back to matrix.SharedPool, which
// in this one process also feeds the daemon's submit decode, the master's
// result carriers and every worker's frame reader, so a panel recycled while
// a kernel could still read it would be overwritten at once (with NaN under
// -tags poisonpool) and C would differ from the oracle. Caches smaller than
// one job's panel set evict all the time while over budget on pins; caches of
// about a job and a half keep some of the previous job. The traffic mixes an
// A shared by every job, B operands that come back unchanged and freshly
// stamped ones, and one worker dies mid-chunk in every lease it joins, so the
// session exit path recycles a held chunk and half-streamed panels too.
func TestRecycledPanelsStayBitwise(t *testing.T) {
	inst := sched.Instance{R: 6, S: 8, T: 4}
	q := 8
	pb := cache.PanelDataBytes(q, inst.T)
	budgets := map[string]int64{
		"smaller than one job": 2 * pb,
		"a job and a half":     3 * int64(inst.R+inst.S) * pb / 2,
	}
	for name, budget := range budgets {
		t.Run(name, func(t *testing.T) {
			opts := func(int) mmnet.WorkerOptions {
				return mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(budget)}
			}
			// Worker 0 is the same loop as worker 1, counting the sessions its
			// crash hook ended.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			var crashes atomic.Int64
			crasher := opts(0)
			crasher.CrashAfterInstalls = 3
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					if errors.Is(mmnet.ServeConn(conn, "crasher", crasher), mmnet.ErrCrashInjected) {
						crashes.Add(1)
					}
				}
			}()
			addrs := append([]string{ln.Addr().String()}, startWorkers(t, 1, opts)...)

			f, err := NewFleet(addrs, homSpecs(2), FleetOptions{Master: mmnet.MasterOptions{IOTimeout: 10 * time.Second}})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s := NewServer(f, Config{Logger: testLogger(t)})
			defer s.Close()
			daemon := startClientListener(t, s).Addr().String()

			rng := rand.New(rand.NewSource(720))
			a := matrix.NewBlockMatrix(inst.R, inst.T, q)
			a.FillRandom(rng)
			var bs [2]*matrix.BlockMatrix
			for i := range bs {
				bs[i] = matrix.NewBlockMatrix(inst.T, inst.S, q)
				bs[i].FillRandom(rng)
			}
			for job := 0; job < 12; job++ {
				if job == 6 {
					// Worker 0 died in job 0; have it back, its cache as it
					// was, to die again among warm caches.
					for deadline := time.Now().Add(10 * time.Second); len(f.Idle()) < 2; time.Sleep(20 * time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatal("the crashed worker never re-registered")
						}
					}
				}
				b := bs[job%2]
				if job%3 != 0 { // every third job's B comes back as it was
					for j := 0; j < inst.S; j++ {
						b.Block(0, j).Set(0, 0, rng.Float64())
					}
				}
				if job%4 == 3 { // one fresh panel among A's resident ones
					a.Block(job%inst.R, 0).Set(0, 0, rng.Float64())
				}
				c := matrix.NewBlockMatrix(inst.R, inst.S, q)
				c.FillRandom(rng)
				want := oracleC(t, a, b, c)
				got, _, err := SubmitProduct(context.Background(), daemon, a, b, c, nil, ClassStandard)
				if err != nil {
					t.Fatalf("job %d: %v", job, err)
				}
				if d := got.MaxAbsDiff(want); d != 0 {
					t.Fatalf("job %d: C differs from the in-process oracle by %g", job, d)
				}
			}
			if n := crashes.Load(); n < 2 {
				t.Errorf("test premise broken: the crashing worker died mid-job %d times, want 2", n)
			}
			st := s.Status()
			if st.Cache == nil || st.Cache.PanelHits == 0 || st.Cache.PanelMisses == 0 {
				t.Errorf("test premise broken: want both cache hits and misses, got %+v", st.Cache)
			}
		})
	}
}
