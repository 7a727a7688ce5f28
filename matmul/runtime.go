package matmul

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/coded"
	"repro/internal/engine"
	"repro/internal/kernel"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// trackerUnit seeds a session's estimate tracker from the declared platform
// when no pacing gives the model units a real duration: declared costs
// become microseconds, and the first observed job pulls every used worker
// onto the measured scale (only the declared ratios matter).
const trackerUnit = time.Microsecond

// statsFromTracker renders the shared stats shape from a platform and an
// optional tracker.
// workerKernel resolves worker i's kernel name; nil means every worker runs
// in this process and shares the session's kernel.
func statsFromTracker(pl *platform.Platform, tr *adapt.Tracker, replans int, workerKernel func(i int) string) SessionStats {
	st := SessionStats{Kernel: kernel.Name(), Adaptive: tr != nil, Replans: replans}
	var est []adapt.Estimate
	if tr != nil {
		est = tr.Snapshot()
	}
	for i, w := range pl.Workers {
		ws := WorkerStats{Name: w.Name, Spec: w}
		if kern := workerKernel(i); kern != "" {
			ws.Kernel = kern
		}
		if i < len(est) {
			e := est[i]
			if e.Transfers+e.Computes > 0 {
				ws.CPerBlock = time.Duration(e.C * float64(time.Second))
				ws.WPerUpdate = time.Duration(e.W * float64(time.Second))
				ws.Samples = e.Transfers + e.Computes
			}
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}

// Runtime selects where a Session's jobs execute. The three implementations
// are InProcess, Distributed and Remote; a Runtime is opened once per
// Session and owns nothing until then.
type Runtime interface {
	// open validates cfg against this runtime and brings up the session
	// (dialing workers or nothing at all). ctx bounds the open.
	open(ctx context.Context, cfg *config) (runtimeSession, error)
}

// runtimeSession is one opened runtime: it executes submitted jobs and is
// closed exactly once, after every job goroutine has unwound.
type runtimeSession interface {
	// run executes one product under ctx, updating c in place. a and b are
	// operand handles (installed or transient; see Session.operandOf) so a
	// caching runtime can reach their memoized panel digests. It reports
	// cancellation as an error wrapping context.Canceled.
	run(ctx context.Context, j *Job, a, b *Operand, c *Matrix) error
	close() error
}

// localTracer marks runtime sessions whose executor runs in this process,
// so Submit can thread a trace recorder through the job's context and
// Job.Trace can return the recorded timeline. Remote sessions are not one:
// the daemon executes the job, and recording lives there.
type localTracer interface{ tracesLocally() }

// InProcess is the verification runtime: goroutine workers in this process,
// channels as links, optionally paced at the platform's link costs
// (WithPacing) under a one-port master (WithOnePort).
func InProcess() Runtime { return inProcessRuntime{} }

type inProcessRuntime struct{}

func (inProcessRuntime) open(_ context.Context, cfg *config) (runtimeSession, error) {
	if cfg.setShutdown {
		return nil, fmt.Errorf("matmul: WithWorkerShutdown applies to the Distributed runtime only; there are no worker daemons in-process")
	}
	if cfg.setPanelCache {
		return nil, fmt.Errorf("matmul: WithPanelCache applies to runtimes with a wire (Distributed, Remote); in-process workers share the operands already")
	}
	pl := cfg.platform
	if pl == nil {
		// The default testbed: small and heterogeneous, so plans exercise
		// many chunk shapes (same default cmd/mmrun has always used).
		pl = platform.MustNew(
			platform.Worker{C: 1, W: 1, M: 60},
			platform.Worker{C: 1.5, W: 1.2, M: 40},
			platform.Worker{C: 2, W: 1.5, M: 24},
			platform.Worker{C: 3, W: 2, M: 96},
		)
	}
	sess := &inProcessSession{cfg: cfg, pl: pl}
	if cfg.adaptive {
		unit := cfg.pacing
		if unit <= 0 {
			unit = trackerUnit
		}
		sess.tracker = adapt.NewTracker(pl.Workers, unit, 0)
	}
	return sess, nil
}

type inProcessSession struct {
	cfg     *config
	pl      *platform.Platform
	tracker *adapt.Tracker // non-nil iff WithAdaptive
	replans atomic.Int32
}

func (s *inProcessSession) run(ctx context.Context, _ *Job, ah, bh *Operand, c *Matrix) error {
	a, b := ah.mat, bh.mat
	plan, err := schedule(s.cfg, s.pl, a, c)
	if err != nil {
		return err
	}
	ecfg := engine.Config{
		Workers: s.pl.P(), T: a.Cols,
		Platform: s.pl, TimePerUnit: s.cfg.pacing,
		Pipelined: s.cfg.pipelined, OnePort: s.cfg.onePort, Procs: s.cfg.procs,
	}
	// The in-process fleet is fixed (goroutine workers neither crash nor
	// join), so elasticity here means estimate tracking plus drift-triggered
	// rebalancing of the un-dispatched chunks: no join feed.
	if ecfg.Options, err = runOptions(s.cfg, plan, a, c, s.pl.P(), s.tracker, nil, &s.replans); err != nil {
		return err
	}
	return engine.RunContext(ctx, ecfg, plan, a, b, c)
}

func (s *inProcessSession) stats(context.Context) (SessionStats, error) {
	st := statsFromTracker(s.pl, s.tracker, int(s.replans.Load()), func(int) string { return kernel.Name() })
	if s.cfg.redundant() {
		st.Redundancy = string(s.cfg.redundancy)
	}
	return st, nil
}

func (s *inProcessSession) close() error { return nil }

func (s *inProcessSession) tracesLocally() {}

// Distributed drives remote mmworker daemons over TCP: the session dials
// every address at Open and replays plans over those links. Jobs execute
// one at a time (the links are the session's single fleet); submit to an
// mmserve daemon via Remote for concurrent multi-job scheduling.
func Distributed(addrs ...string) Runtime { return distributedRuntime{addrs: addrs} }

type distributedRuntime struct{ addrs []string }

func (r distributedRuntime) open(ctx context.Context, cfg *config) (runtimeSession, error) {
	if len(r.addrs) == 0 {
		return nil, fmt.Errorf("matmul: Distributed needs at least one worker address")
	}
	if cfg.setPacing {
		return nil, fmt.Errorf("matmul: WithPacing applies to the InProcess runtime only; distributed links are real")
	}
	if cfg.setProcs {
		return nil, fmt.Errorf("matmul: WithProcs applies to the InProcess runtime only; remote workers set their own parallelism via mmworker -procs")
	}
	pl := cfg.platform
	if pl == nil {
		// Remote capabilities are not probed; model them as homogeneous.
		pl = platform.Homogeneous(len(r.addrs), 1, 1, 60)
	} else if pl.P() != len(r.addrs) {
		return nil, fmt.Errorf("matmul: platform describes %d workers but %d addresses were dialed", pl.P(), len(r.addrs))
	}
	m, err := mmnet.DialContext(ctx, r.addrs, &mmnet.MasterOptions{OnePort: cfg.onePort})
	if err != nil {
		return nil, err
	}
	sess := &distributedSession{cfg: cfg, pl: pl, m: m, sem: make(chan struct{}, 1)}
	if cfg.adaptive {
		sess.tracker = adapt.NewTracker(pl.Workers, trackerUnit, 0)
		sess.join = make(chan int, 16)
	}
	return sess, nil
}

type distributedSession struct {
	cfg *config
	m   *mmnet.Master

	// sem serializes jobs over the shared links. A semaphore rather than a
	// mutex so a job cancelled while waiting its turn leaves immediately
	// instead of riding out the job in flight.
	sem chan struct{}

	tracker *adapt.Tracker // non-nil iff WithAdaptive
	join    chan int       // elastic join feed into the running job
	replans atomic.Int32
	// addMu pairs a master AddWorker with the platform/tracker growth, so
	// the three index spaces cannot interleave differently.
	addMu sync.Mutex

	mu     sync.Mutex         // guards broken and pl
	pl     *platform.Platform // grows with AddWorker
	broken error              // first failed run; the links are tainted after it
}

func (s *distributedSession) run(ctx context.Context, _ *Job, ah, bh *Operand, c *Matrix) error {
	a, b := ah.mat, bh.mat
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return fmt.Errorf("matmul: job canceled while queued behind the session's running job: %w", ctx.Err())
	}
	s.mu.Lock()
	broken, pl := s.broken, s.pl
	s.mu.Unlock()
	if broken != nil {
		return fmt.Errorf("matmul: session unusable after an aborted job (%v); open a fresh one", broken)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("matmul: job canceled before dispatch: %w", err)
	}
	plan, err := schedule(s.cfg, pl, a, c)
	if err != nil {
		return err
	}
	if s.cfg.panelCache {
		// Open the job's cache epoch over the shared links (the sem makes
		// jobs sequential, so epochs cannot interleave): worker daemons that
		// kept these operands' panels from an earlier job skip the transfers.
		s.m.BeginJob(jobPanels(ah, bh))
		defer s.m.EndJob()
	}
	// A redundancy-plan error aborts before any dispatch, so the links stay
	// clean for the next job.
	opts, err := runOptions(s.cfg, plan, a, c, pl.P(), s.tracker, s.join, &s.replans)
	if err != nil {
		return err
	}
	if s.cfg.pipelined { // Open rejects an adaptive or redundant session without it
		err = s.m.Execute(ctx, a.Cols, plan, a, b, c, opts)
	} else {
		err = s.m.RunContext(ctx, a.Cols, plan, a, b, c)
	}
	if err != nil {
		// The reusable-backend contract covers successful runs only: after a
		// failure (cancellation included) workers may hold chunks, so the
		// session must not dispatch further jobs over these links.
		s.mu.Lock()
		s.broken = err
		s.mu.Unlock()
	}
	return err
}

// addWorker implements Session.AddWorker: dial, join the master (mid-run
// included), grow the scheduling platform for subsequent jobs, and — when
// adaptive — track the newcomer and feed its index to the running job's
// elastic executor.
func (s *distributedSession) addWorker(ctx context.Context, addr string, spec Worker) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	s.addMu.Lock()
	defer s.addMu.Unlock()
	wc, err := mmnet.DialWorkerContext(ctx, addr, &mmnet.MasterOptions{OnePort: s.cfg.onePort})
	if err != nil {
		return 0, err
	}
	w, err := s.m.AddWorker(wc)
	if err != nil {
		wc.Release()
		return 0, err
	}
	if spec.Name == "" {
		spec.Name = addr
	}
	s.mu.Lock()
	ws := append(append([]platform.Worker(nil), s.pl.Workers...), spec)
	grown, perr := platform.New(ws...)
	if perr == nil {
		s.pl = grown
	}
	s.mu.Unlock()
	if perr != nil {
		return 0, perr
	}
	if s.tracker != nil {
		s.tracker.Grow(spec, trackerUnit)
		select {
		case s.join <- w:
		default:
			// No run is draining the channel and the buffer is full; the
			// worker still serves every subsequent job via the grown platform.
		}
	}
	return w, nil
}

func (s *distributedSession) stats(context.Context) (SessionStats, error) {
	s.mu.Lock()
	pl := s.pl
	s.mu.Unlock()
	kernels := s.m.WorkerKernels()
	st := statsFromTracker(pl, s.tracker, int(s.replans.Load()), func(i int) string {
		if i < len(kernels) {
			return kernels[i]
		}
		return ""
	})
	if s.cfg.panelCache {
		// The session drives one master for its whole life, so the per-link
		// counters are already session totals.
		tot := &PanelCacheStats{}
		for i, ws := range s.m.CacheStats() {
			if i < len(st.Workers) {
				w := &st.Workers[i]
				w.CacheHits, w.CacheMisses = ws.PanelHits, ws.PanelMisses
				w.CacheSentBytes = ws.ASentBytes + ws.BSentBytes
				w.CacheSavedBytes = ws.ASavedBytes + ws.BSavedBytes
				w.ResidentPanels = int(ws.ResidentPanels)
				w.ResidentBytes = ws.ResidentBytes
			}
			tot.PanelHits += ws.PanelHits
			tot.PanelMisses += ws.PanelMisses
			tot.ASentBytes += ws.ASentBytes
			tot.ASavedBytes += ws.ASavedBytes
			tot.BSentBytes += ws.BSentBytes
			tot.BSavedBytes += ws.BSavedBytes
			tot.ResidentBytes += ws.ResidentBytes
		}
		st.PanelCache = tot
	}
	if s.cfg.redundant() {
		st.Redundancy = string(s.cfg.redundancy)
	}
	return st, nil
}

func (s *distributedSession) tracesLocally() {}

func (s *distributedSession) close() error {
	s.mu.Lock()
	broken := s.broken
	s.mu.Unlock()
	if broken != nil {
		// Tainted links cannot be handed back mid-protocol; drop them. The
		// worker daemons survive (their serve loops accept the next master).
		s.m.Close()
		return nil
	}
	if s.cfg.shutdown {
		return s.m.Shutdown()
	}
	return s.m.Release()
}

// Remote submits jobs to an mmserve scheduling daemon: the daemon queues
// them, selects a throughput-best worker subset per job, and runs disjoint
// leases concurrently. Scheduling choices live daemon-side, so the
// scheduling options (WithAlgorithm, WithPlatform, …) are rejected here.
func Remote(addr string) Runtime { return remoteRuntime{addr: addr} }

type remoteRuntime struct{ addr string }

func (r remoteRuntime) open(_ context.Context, cfg *config) (runtimeSession, error) {
	if r.addr == "" {
		return nil, fmt.Errorf("matmul: Remote needs the daemon address")
	}
	if cfg.setRedundancy {
		return nil, fmt.Errorf("matmul: WithRedundancy does not apply to the Remote runtime; the mmserve daemon owns redundancy (see its -redundancy flag)")
	}
	reject := func(set bool, opt string) error {
		if set {
			return fmt.Errorf("matmul: %s does not apply to the Remote runtime; the mmserve daemon owns scheduling (see its -alg and -specs flags)", opt)
		}
		return nil
	}
	for _, rj := range []struct {
		set bool
		opt string
	}{
		{cfg.setAlgorithm, "WithAlgorithm"},
		{cfg.setPlatform, "WithPlatform"},
		{cfg.setPacing, "WithPacing"},
		{cfg.setProcs, "WithProcs"},
		{cfg.setOnePort, "WithOnePort"},
		{cfg.setPipelined, "WithPipelined"},
		{cfg.setShutdown, "WithWorkerShutdown"},
		{cfg.setAdaptive, "WithAdaptive"},
	} {
		if err := reject(rj.set, rj.opt); err != nil {
			return nil, err
		}
	}
	return &remoteSession{addr: r.addr, cacheOn: cfg.panelCache}, nil
}

type remoteSession struct {
	addr    string
	cacheOn bool
}

func (s *remoteSession) run(ctx context.Context, j *Job, ah, bh *Operand, c *Matrix) error {
	a, b := ah.mat, bh.mat
	// With caching on, ship the operands' digests with the blocks so the
	// daemon can route by affinity and its workers can skip resident panels —
	// without re-hashing A and B server-side. Installed handles make this
	// nearly free on every submission after the first. The job's SLO class
	// (WithClass) rides the same frame; the daemon's queue policy and
	// admission control act on it.
	var jp *cache.JobPanels
	if s.cacheOn {
		jp = jobPanels(ah, bh)
	}
	// The daemon's reply is decoded straight into c's blocks.
	_, id, err := serve.SubmitProduct(ctx, s.addr, a, b, c, jp, j.class)
	if id != 0 {
		j.setRemoteID(id)
		// The daemon records every job's timeline; expose it through
		// Job.Trace by fetching on demand once the job is terminal there.
		addr := s.addr
		j.setTraceFetch(func(ctx context.Context) (*trace.Trace, error) {
			return serve.FetchTraceContext(ctx, addr, id)
		})
	}
	return err
}

// stats fetches the daemon's snapshot and renders it in the session shape:
// on an adaptive daemon the estimates are the fleet-wide measured costs.
func (s *remoteSession) stats(ctx context.Context) (SessionStats, error) {
	ds, err := serve.FetchStatsContext(ctx, s.addr)
	if err != nil {
		return SessionStats{}, err
	}
	st := SessionStats{Kernel: ds.Kernel, Adaptive: ds.Adaptive, Redundancy: ds.Redundancy}
	if dc := ds.Cache; dc != nil {
		st.PanelCache = &PanelCacheStats{
			PanelHits: dc.PanelHits, PanelMisses: dc.PanelMisses,
			ASentBytes: dc.ASentBytes, ASavedBytes: dc.ASavedBytes,
			BSentBytes: dc.BSentBytes, BSavedBytes: dc.BSavedBytes,
			ResidentBytes: dc.ResidentBytes,
		}
	}
	for _, w := range ds.Workers {
		ws := WorkerStats{Name: w.Name, Kernel: w.Kernel, Spec: w.Spec, Samples: w.Samples}
		if ws.Name == "" {
			ws.Name = w.Addr
		}
		if w.Samples > 0 {
			ws.CPerBlock = time.Duration(w.EstC * float64(time.Millisecond))
			ws.WPerUpdate = time.Duration(w.EstW * float64(time.Millisecond))
		}
		ws.CacheHits, ws.CacheMisses = w.CacheHits, w.CacheMisses
		ws.CacheSentBytes, ws.CacheSavedBytes = w.SentBytes, w.SavedBytes
		ws.ResidentPanels, ws.ResidentBytes = w.ResidentPanels, w.ResidentBytes
		st.Workers = append(st.Workers, ws)
	}
	for _, js := range ds.Jobs {
		st.Replans += js.Replans
	}
	return st, nil
}

func (s *remoteSession) close() error { return nil }

// runOptions builds the concurrent core's policies for one local job from
// the session config. A redundant job runs through the k-of-n gate, which
// subsumes elastic failover — mode and factor from the config, placement
// priced by the tracker's live estimates when the session is adaptive.
// Otherwise an adaptive session runs elastic: tr observes, join feeds workers
// added mid-run, replans counts re-plans. Neither: the zero Options, a static
// run.
func runOptions(cfg *config, plan []sim.PlanOp, a, c *Matrix, workers int, tr *adapt.Tracker, join <-chan int, replans *atomic.Int32) (engine.Options, error) {
	if cfg.redundant() {
		opts := coded.Options{Mode: cfg.redundancy, R: cfg.redundancyR}
		if tr != nil {
			opts.Estimator = tr
		}
		red, err := coded.Plan(a.Cols, plan, a, c, workers, opts)
		return engine.Options{Redundancy: red}, err
	}
	if tr != nil {
		return engine.Options{Elastic: &engine.Elastic{
			Tracker:        tr,
			Join:           join,
			DriftThreshold: cfg.drift,
			OnReplan:       func(string, int) { replans.Add(1) },
		}}, nil
	}
	return engine.Options{}, nil
}

// schedule plans one job's product on pl with the session's scheduler and
// returns the replayable plan.
func schedule(cfg *config, pl *platform.Platform, a, c *Matrix) ([]sim.PlanOp, error) {
	inst := sched.Instance{R: c.Rows, S: c.Cols, T: a.Cols}
	res, err := cfg.scheduler.Schedule(pl, inst)
	if err != nil {
		return nil, fmt.Errorf("matmul: schedule %s: %w", cfg.algorithm, err)
	}
	return res.Plan(), nil
}
