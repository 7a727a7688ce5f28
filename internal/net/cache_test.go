package net

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
)

// cachePlatform is a small heterogeneous testbed shared by the cache tests.
func cachePlatform() *platform.Platform {
	return platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 40},
		platform.Worker{C: 2, W: 1.5, M: 24},
		platform.Worker{C: 1.5, W: 2, M: 60},
	)
}

// TestCacheLoopbackBitwiseAndSkips drives two jobs with identical operands
// over pooled worker sessions holding panel caches: the first job streams
// everything and seeds the caches, the second must skip every panel transfer
// — and both must produce C bitwise-identical to the in-process engine,
// cached inputs and streamed inputs being the same bits.
func TestCacheLoopbackBitwiseAndSkips(t *testing.T) {
	pl := cachePlatform()
	inst := sched.Instance{R: 7, S: 11, T: 5}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 4

	a, b, cNet, _ := testMatrices(t, inst, q, 31)
	_, _, cEng, _ := testMatrices(t, inst, q, 31)
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
		return WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(0)}
	})
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	jp := cache.PanelsForJob(a, b)
	run := func(c *matrix.BlockMatrix) []WorkerCacheStats {
		t.Helper()
		m.BeginJob(jp)
		if err := m.Execute(context.Background(), inst.T, plan, a, b, c, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		st := m.CacheStats()
		m.EndJob()
		return st
	}

	st1 := run(cNet)
	if d := cNet.MaxAbsDiff(cEng); d != 0 {
		t.Errorf("first (cold) cached run differs from in-process C by %g (want bitwise equal)", d)
	}
	var sent1 int64
	for _, s := range st1 {
		if !s.CacheOn {
			t.Errorf("worker %s answered cache-off", s.Name)
		}
		if s.PanelHits != 0 {
			t.Errorf("worker %s: %d hits on a cold cache", s.Name, s.PanelHits)
		}
		sent1 += s.ASentBytes + s.BSentBytes
	}
	if sent1 == 0 {
		t.Fatal("cold run shipped no panel bytes")
	}

	// Same operands again: every panel is resident, so the whole job must
	// move zero A/B payload bytes.
	_, _, cNet2, _ := testMatrices(t, inst, q, 31)
	_, _, cEng2, _ := testMatrices(t, inst, q, 31)
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng2); err != nil {
		t.Fatal(err)
	}
	st2 := run(cNet2)
	if d := cNet2.MaxAbsDiff(cEng2); d != 0 {
		t.Errorf("warm cached run differs from in-process C by %g (want bitwise equal)", d)
	}
	// Counters are cumulative over the lease, so the warm job's traffic is
	// the delta. The plan is deterministic, so every chunk lands on the
	// worker that already holds its panels: zero bytes move.
	for i, s := range st2 {
		if sent := s.ASentBytes + s.BSentBytes - st1[i].ASentBytes - st1[i].BSentBytes; sent != 0 {
			t.Errorf("worker %s shipped %d panel bytes on a warm cache", s.Name, sent)
		}
		if hits := s.PanelHits - st1[i].PanelHits; hits == 0 {
			t.Errorf("worker %s: no handshake hits on a warm cache", s.Name)
		}
	}
}

// TestCacheOffWorkerFallsBack pairs a caching master epoch with cacheless
// workers: the handshake answers cache-off, the master stays on the legacy
// full-transfer protocol, and the result is still bitwise-correct — a mixed
// fleet cannot corrupt C.
func TestCacheOffWorkerFallsBack(t *testing.T) {
	pl := cachePlatform()
	inst := sched.Instance{R: 4, S: 6, T: 3}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 4

	a, b, cNet, _ := testMatrices(t, inst, q, 33)
	_, _, cEng, _ := testMatrices(t, inst, q, 33)
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
		t.Fatal(err)
	}

	// Worker 1 runs a cache; the others do not.
	addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond}
		if i == 1 {
			o.Cache = cache.NewPanelCache(0)
		}
		return o
	})
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	m.BeginJob(cache.PanelsForJob(a, b))
	if err := m.Execute(context.Background(), inst.T, plan, a, b, cNet, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	st := m.CacheStats()
	m.EndJob()
	if d := cNet.MaxAbsDiff(cEng); d != 0 {
		t.Errorf("mixed-fleet C differs from in-process C by %g (want bitwise equal)", d)
	}
	for i, s := range st {
		if want := i == 1; s.CacheOn != want {
			t.Errorf("worker %d: CacheOn=%v, want %v", i, s.CacheOn, want)
		}
		if !s.CacheOn && s.ASavedBytes+s.BSavedBytes != 0 {
			t.Errorf("worker %d: skipped bytes on a cacheless worker", i)
		}
	}
}

// TestCacheTinyBudgetEvictionMidLease runs successive jobs against workers
// whose caches hold barely one panel, so installs and evictions churn while
// leases are active; under -race this doubles as the eviction-vs-lease race
// test, and every job's C must stay bitwise-correct since pinned (promised)
// panels cannot be evicted mid-job.
func TestCacheTinyBudgetEvictionMidLease(t *testing.T) {
	pl := cachePlatform()
	inst := sched.Instance{R: 5, S: 7, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 4

	a, _, _, _ := testMatrices(t, inst, q, 40)
	budget := cache.PanelDataBytes(q, inst.T) * 3 / 2 // fits one panel, not two
	addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
		return WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(budget)}
	})
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	for job := 0; job < 3; job++ {
		_, b, cNet, _ := testMatrices(t, inst, q, int64(50+job))
		_, _, cEng, _ := testMatrices(t, inst, q, int64(50+job))
		if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
			t.Fatal(err)
		}
		m.BeginJob(cache.PanelsForJob(a, b))
		if err := m.Execute(context.Background(), inst.T, plan, a, b, cNet, engine.Options{}); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		m.EndJob()
		if d := cNet.MaxAbsDiff(cEng); d != 0 {
			t.Errorf("job %d: C differs from in-process C by %g under eviction pressure", job, d)
		}
	}
}

// TestCacheCrashFailoverStaysCorrect crashes one caching worker mid-job: the
// survivors replay its chunks through the same digest-addressed protocol and
// C must come out bitwise-identical — promotions for the dead worker's
// chunks must not leak into any survivor's residency.
func TestCacheCrashFailoverStaysCorrect(t *testing.T) {
	pl := cachePlatform()
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 4

	a, b, cNet, _ := testMatrices(t, inst, q, 60)
	_, _, cEng, _ := testMatrices(t, inst, q, 60)
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, plan, a, b, cEng); err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, pl.P(), func(i int) WorkerOptions {
		o := WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(0)}
		if i == 1 {
			o.CrashAfterInstalls = 2
		}
		return o
	})
	m, err := Dial(addrs, &MasterOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	m.BeginJob(cache.PanelsForJob(a, b))
	if err := m.Execute(context.Background(), inst.T, plan, a, b, cNet, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	m.EndJob()
	if d := cNet.MaxAbsDiff(cEng); d != 0 {
		t.Errorf("failover C differs from in-process C by %g (want bitwise equal)", d)
	}
}

// TestSessionExitRecyclesHeldBlocks: a master that vanishes mid-chunk leaves
// the worker holding a chunk and half-streamed panels, and the session's exit
// returns them to the pool like every other path. The block edge is one no
// other test of this package uses, so whatever matrix.SharedPool holds at
// that edge afterwards came from this session.
func TestSessionExitRecyclesHeldBlocks(t *testing.T) {
	const q = 13
	master, worker := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(worker, "w", WorkerOptions{Heartbeat: time.Hour, Cache: cache.NewPanelCache(0)})
	}()
	rd := bufio.NewReader(master)
	if _, err := ReadMsg(rd, nil); err != nil { // hello
		t.Fatal(err)
	}
	blocks := func(n int) []*matrix.Block {
		out := make([]*matrix.Block, n)
		for i := range out {
			out[i] = matrix.NewBlock(q)
			for k := range out[i].Data {
				out[i].Data[k] = 1
			}
		}
		return out
	}
	// A 2×2 chunk, then the first of two installments of a depth-2 job, all
	// four panels new to the cache: 4 chunk blocks held, 4 panel blocks
	// pending, none of them promoted.
	ch := matrix.Chunk{Row0: 0, Col0: 0, H: 2, W: 2}
	refs := func(base byte) []PanelRef { return []PanelRef{{D: cache.Digest{base}}, {D: cache.Digest{base + 1}}} }
	for _, m := range []*Msg{
		{Kind: MsgChunk, Chunk: ch, Blocks: blocks(4)},
		{Kind: MsgInstall, Chunk: ch, K0: 0, K1: 1, T: 2, ARefs: refs(1), BRefs: refs(3), Blocks: blocks(4)},
	} {
		if err := WriteMsg(master, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	master.Close()
	if err := <-done; err == nil {
		t.Fatal("session ended cleanly although the master vanished mid-chunk")
	}

	// A fresh block is all zeros; a recycled one still holds the ones sent
	// (NaN under -tags poisonpool). sync.Pool may drop some Puts, not all 8.
	recycled := 0
	for i := 0; i < 8; i++ {
		if b := matrix.SharedPool.Get(q); b.Data[0] != 0 {
			recycled++
		}
	}
	if recycled == 0 {
		t.Error("none of the 8 blocks the session held reached the pool")
	}
}
