package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/serve"
	"repro/matmul"
)

// system is the whole stack in one process over real loopback TCP: worker
// daemons' serve loops, the fleet that holds their sessions, the job-queue
// server and its client listener, and the facade sessions that drive it.
type system struct {
	gen   *generator
	fleet *serve.Fleet
	srv   *serve.Server
	addr  string // the daemon's client address

	listeners []net.Listener
	serving   sync.WaitGroup // worker serve loops and the client accept loop

	sessions []*matmul.Session
	sets     []*opSet          // one per closed-loop client; openLoopSets for the open loop
	shared   []*matmul.Operand // installed A operands (shared workloads)
	sharedM  []*matrix.BlockMatrix
}

// setUp brings the stack up and generates the workload's operands: exactly
// what setup_s times.
func setUp(ctx context.Context, gen *generator) (*system, error) {
	sys := &system{gen: gen}
	ok := false
	defer func() {
		if !ok {
			sys.tearDown()
		}
	}()

	addrs := make([]string, len(fleetSpecs))
	for i := range fleetSpecs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sys.listeners = append(sys.listeners, ln)
		addrs[i] = ln.Addr().String()
		opts := mmnet.WorkerOptions{Procs: 1, Cache: cache.NewPanelCache(workerCacheBytes)}
		sys.serving.Add(1)
		go func(name string) {
			defer sys.serving.Done()
			mmnet.Serve(ln, name, opts) // returns when tearDown closes ln
		}(fleetSpecs[i].Name)
	}
	// Keepalive pings are off: runs are far shorter than the workers' idle
	// timeout, and a ping landing inside a repetition is noise.
	fleet, err := serve.NewFleet(addrs, fleetSpecs, serve.FleetOptions{Keepalive: -1})
	if err != nil {
		return nil, err
	}
	sys.fleet = fleet
	sys.srv = serve.NewServer(fleet, serve.Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys.listeners = append(sys.listeners, ln)
	sys.addr = ln.Addr().String()
	sys.serving.Add(1)
	go func() {
		defer sys.serving.Done()
		sys.srv.ListenAndServe(ln) // returns when tearDown closes ln
	}()

	wl := gen.wl
	nSess, nSets := wl.clients, wl.clients
	if wl.open() {
		nSess, nSets = 1, openLoopSets
	}
	for i := 0; i < nSess; i++ {
		sess, err := matmul.Open(ctx, matmul.WithRuntime(matmul.Remote(sys.addr)))
		if err != nil {
			return nil, err
		}
		sys.sessions = append(sys.sessions, sess)
	}
	for k := 0; k < nSets; k++ {
		sys.sets = append(sys.sets, gen.newSet(k))
	}
	sys.sharedM = gen.sharedOperands()
	for _, m := range sys.sharedM {
		op, err := sys.sessions[0].Install(ctx, m)
		if err != nil {
			return nil, err
		}
		sys.shared = append(sys.shared, op)
	}
	ok = true
	return sys, nil
}

// tearDown stops everything setUp started and waits for it to end.
func (s *system) tearDown() {
	for _, sess := range s.sessions {
		sess.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.serving.Wait()
}

// operandA returns what job submits in the A position on set: the set's own
// matrix, or one of the installed operands.
func (s *system) operandA(set *opSet, job int) any {
	if len(s.shared) == 0 {
		return set.a
	}
	return s.shared[s.gen.sharedIndex(job)]
}

// matrixA is operandA's underlying matrix, for the layers below the facade.
func (s *system) matrixA(set *opSet, job int) *matrix.BlockMatrix {
	if len(s.sharedM) == 0 {
		return set.a
	}
	return s.sharedM[s.gen.sharedIndex(job)]
}

// runJob puts one job through the whole stack and waits for it.
func (s *system) runJob(ctx context.Context, sess *matmul.Session, set *opSet, job int) error {
	j, err := sess.Submit(ctx, s.operandA(set, job), set.b, set.c)
	if err != nil {
		return err
	}
	return j.Wait(ctx)
}

// checkJob runs job through the full stack and through the in-process
// oracle from the same inputs and compares the two Cs bitwise.
func (s *system) checkJob(ctx context.Context, oracle *matmul.Session, set *opSet, job int) error {
	s.gen.freshen(set, job)
	want := set.c.Clone()
	if err := s.runJob(ctx, s.sessions[0], set, job); err != nil {
		return fmt.Errorf("job %d: %w", job, err)
	}
	oj, err := oracle.Submit(ctx, s.matrixA(set, job), set.b, want)
	if err == nil {
		err = oj.Wait(ctx)
	}
	if err != nil {
		return fmt.Errorf("job %d on the in-process oracle: %w", job, err)
	}
	if d := set.c.MaxAbsDiff(want); d != 0 {
		return fmt.Errorf("job %d: C differs from the in-process oracle by %g", job, d)
	}
	return nil
}

// settle waits for the goroutines a finished phase leaves winding down
// (client handlers, released sessions) and returns how many more than
// baseline are still alive after the grace period.
func settle(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		extra := runtime.NumGoroutine() - baseline
		if extra <= 0 || time.Now().After(deadline) {
			return max(extra, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
