package matmul

import (
	"context"
	"fmt"
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

// trackerUnit seeds an in-process session's estimate tracker from the
// declared platform when no pacing gives the model units a real duration:
// declared costs become microseconds, and the first observed job pulls every
// used worker onto the measured scale (only the declared ratios matter).
const trackerUnit = time.Microsecond

// renderStats renders a serve.Server snapshot — the embedded one of a
// Distributed session, or a Remote daemon's — in the session shape.
func renderStats(ds serve.Stats) SessionStats {
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
	stats(ctx context.Context) (SessionStats, error)
	close() error
}

// InProcess is the verification runtime: goroutine workers in this process,
// channels as links, optionally paced at the platform's link costs
// (WithPacing) under a one-port master (WithOnePort).
func InProcess() Runtime { return inProcessRuntime{} }

type inProcessRuntime struct{}

func (inProcessRuntime) open(_ context.Context, cfg *config) (runtimeSession, error) {
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
	res, err := s.cfg.scheduler.Schedule(s.pl, sched.Instance{R: c.Rows, S: c.Cols, T: a.Cols})
	if err != nil {
		return fmt.Errorf("matmul: schedule %s: %w", s.cfg.algorithm, err)
	}
	plan := res.Plan()
	ecfg := engine.Config{
		Workers: s.pl.P(), T: a.Cols,
		Platform: s.pl, TimePerUnit: s.cfg.pacing,
		Pipelined: s.cfg.pipelined, OnePort: s.cfg.onePort, Procs: s.cfg.procs,
	}
	if ecfg.Options, err = runOptions(s.cfg, plan, a, c, s.pl.P(), s.tracker, &s.replans); err != nil {
		return err
	}
	return engine.RunContext(ctx, ecfg, plan, a, b, c)
}

func (s *inProcessSession) stats(context.Context) (SessionStats, error) {
	st := SessionStats{Kernel: kernel.Name(), Adaptive: s.tracker != nil, Replans: int(s.replans.Load())}
	if s.cfg.redundant() {
		st.Redundancy = string(s.cfg.redundancy)
	}
	var est []adapt.Estimate
	if s.tracker != nil {
		est = s.tracker.Snapshot()
	}
	for i, w := range s.pl.Workers {
		ws := WorkerStats{Name: w.Name, Kernel: kernel.Name(), Spec: w}
		if i < len(est) && est[i].Transfers+est[i].Computes > 0 {
			e := est[i]
			ws.CPerBlock = time.Duration(e.C * float64(time.Second))
			ws.WPerUpdate = time.Duration(e.W * float64(time.Second))
			ws.Samples = e.Transfers + e.Computes
		}
		st.Workers = append(st.Workers, ws)
	}
	return st, nil
}

func (s *inProcessSession) close() error { return nil }

// Distributed drives remote mmworker daemons over TCP through an embedded
// scheduling server — the mmserve daemon's own control plane, in this
// process and without a client socket. Open dials every address; each job
// then gets the paper's per-product resource selection over the fleet,
// jobs submitted concurrently run concurrently on disjoint leases, a worker
// lost mid-job is failed over and re-dialed for later jobs, and an aborted
// job leaves the session usable.
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
	if !cfg.pipelined {
		return nil, fmt.Errorf("matmul: WithPipelined(false) applies to the InProcess runtime only; distributed jobs run on the concurrent core")
	}
	// Remote capabilities are not probed; by default model them as
	// homogeneous.
	specs := platform.Homogeneous(len(r.addrs), 1, 1, 60).Workers
	if pl := cfg.platform; pl != nil {
		if pl.P() != len(r.addrs) {
			return nil, fmt.Errorf("matmul: platform describes %d workers but %d addresses were given", pl.P(), len(r.addrs))
		}
		specs = pl.Workers
	}
	// Dial every worker within ctx before the fleet exists, so an
	// unreachable address fails Open by name instead of starting down.
	mopts := mmnet.MasterOptions{OnePort: cfg.onePort}
	m, err := mmnet.DialContext(ctx, r.addrs, &mopts)
	if err != nil {
		return nil, err
	}
	fleet, err := serve.NewFleetConns(r.addrs, m.Detach(), specs, serve.FleetOptions{Master: mopts})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(fleet, serve.Config{
		Scheduler: cfg.scheduler,
		Adaptive:  cfg.adaptive, DriftThreshold: cfg.drift,
		Redundancy: string(cfg.redundancy), RedundancyFactor: cfg.redundancyR,
		NoCache: !cfg.panelCache,
	})
	return &distributedSession{fleet: fleet, srv: srv, mopts: mopts, cacheOn: cfg.panelCache}, nil
}

type distributedSession struct {
	fleet   *serve.Fleet
	srv     *serve.Server
	mopts   mmnet.MasterOptions
	cacheOn bool
}

func (s *distributedSession) run(ctx context.Context, j *Job, ah, bh *Operand, c *Matrix) error {
	var jp *cache.JobPanels
	if s.cacheOn {
		jp = jobPanels(ah, bh)
	}
	id, err := s.srv.SubmitClass(ah.mat, bh.mat, c, jp, j.class)
	if err != nil {
		return err
	}
	j.accepted(id, func(context.Context) (*trace.Trace, error) { return s.srv.JobTrace(id) })
	stop := context.AfterFunc(ctx, func() { s.srv.Cancel(id) })
	defer stop()
	if err := s.srv.Wait(id); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller ended the job: report why, as Remote does (an
			// expired deadline is a failure, not a cancellation).
			return fmt.Errorf("matmul: job %d ended: %w (server: %v)", id, ctxErr, err)
		}
		return err
	}
	return nil
}

// addWorker implements Session.AddWorker: dial within ctx, then hand the
// session to the server, which grows the fleet (and the estimates of an
// adaptive session) and may attach the newcomer to a running job.
func (s *distributedSession) addWorker(ctx context.Context, addr string, spec Worker) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	wc, err := mmnet.DialWorkerContext(ctx, addr, &s.mopts)
	if err != nil {
		return 0, err
	}
	return s.srv.AddWorkerConn(addr, wc, spec)
}

func (s *distributedSession) stats(context.Context) (SessionStats, error) {
	return renderStats(s.srv.Status()), nil
}

// close releases every worker session back to its daemon's accept loop.
// Session.Close has already waited out every job.
func (s *distributedSession) close() error {
	s.srv.Close()
	s.fleet.Close()
	return nil
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
		// The daemon records every job's timeline; expose it through
		// Job.Trace by fetching on demand once the job is terminal there.
		j.accepted(id, func(ctx context.Context) (*trace.Trace, error) {
			return serve.FetchTraceContext(ctx, s.addr, id)
		})
	}
	return err
}

// stats fetches the daemon's snapshot: on an adaptive daemon the estimates
// are the fleet-wide measured costs.
func (s *remoteSession) stats(ctx context.Context) (SessionStats, error) {
	ds, err := serve.FetchStatsContext(ctx, s.addr)
	if err != nil {
		return SessionStats{}, err
	}
	return renderStats(*ds), nil
}

func (s *remoteSession) close() error { return nil }

// runOptions builds the concurrent core's policies for one local job from
// the session config. A redundant job runs through the k-of-n gate, which
// subsumes elastic failover — mode and factor from the config, placement
// priced by the tracker's live estimates when the session is adaptive.
// Otherwise an adaptive session runs elastic: tr observes, replans counts
// re-plans. Neither: the zero Options, a static run.
func runOptions(cfg *config, plan []sim.PlanOp, a, c *Matrix, workers int, tr *adapt.Tracker, replans *atomic.Int32) (engine.Options, error) {
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
			DriftThreshold: cfg.drift,
			OnReplan:       func(string, int) { replans.Add(1) },
		}}, nil
	}
	return engine.Options{}, nil
}
