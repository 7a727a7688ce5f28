// Package matmul is the public facade of the repository: one small, stable
// API over every execution tier of the heterogeneous master-worker matrix
// product (Dongarra, Pineau, Robert, Shi, Vivien, PPoPP 2008).
//
// matmul.Open returns a Session backed by a pluggable Runtime:
//
//   - InProcess — goroutine workers in this process (the verification
//     engine); supports modeled link pacing and the one-port master.
//   - Distributed — remote mmworker daemons driven over TCP by a scheduling
//     server embedded in this process: the workers are dialed once per
//     session, and each job gets a throughput-best leased subset of them
//     (the paper's resource selection, per product).
//   - Remote — an mmserve scheduling daemon: the same server in its own
//     process, over its own persistent fleet, shared by every client.
//
// Session.Submit hands in the blocked operands of C ← C + A·B and returns a
// *Job handle with Wait, Cancel, Done and Status. Every layer underneath is
// context-aware: cancelling a job's context (or calling Job.Cancel) aborts
// queued work before it leases anything and interrupts running work
// mid-transfer — in-process paced transfers wake from their modeled sleeps,
// and a Distributed or Remote job is dequeued by its scheduling server, or
// its lease's master slams deadlines on the in-flight socket I/O, without
// touching other jobs' leases (the mmserve client protocol carries the
// cancel as a frame).
//
// Whatever the runtime, a correct execution updates every C block through
// the same ascending-k kernel sequence, so the computed C is
// bitwise-identical across all of them.
//
//	sess, err := matmul.Open(ctx, matmul.WithAlgorithm("Het"))
//	job, err := sess.Submit(ctx, a, b, c)   // C ← C + A·B, in place
//	err = job.Wait(ctx)
//
// The internal packages (engine, net, serve, sched, sim) remain the
// implementation; their entry points are kept for compatibility but new
// callers should come in through this package.
package matmul

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/coded"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Matrix is the blocked operand type of the facade: a Rows×Cols grid of
// q×q element blocks. It aliases the engine's internal block matrix, so a
// Session-computed C can be compared bitwise against any internal runtime.
type Matrix = matrix.BlockMatrix

// Worker is one worker's platform description: link cost C, compute cost W,
// memory capacity M in blocks (the paper's c_i, w_i, m_i).
type Worker = platform.Worker

// NewMatrix allocates a rows×cols blocked matrix with block edge q.
func NewMatrix(rows, cols, q int) *Matrix { return matrix.NewBlockMatrix(rows, cols, q) }

// Trace is a recorded execution timeline of one job: per-worker transfer and
// compute spans on a common clock, in the shape the repository's simulator
// and Gantt tooling already speak. Job.Trace returns one for jobs that ran
// in this process, and Trace.WriteChromeTrace renders it as Chrome
// trace-event JSON loadable in Perfetto (ui.perfetto.dev) or about:tracing.
type Trace = trace.Trace

// Multiply computes the serial reference product C ← C + A·B, the oracle a
// Session's result can be verified against (within floating-point
// reordering tolerance; Session results are bitwise-reproducible among
// themselves, not against the serial order).
func Multiply(c, a, b *Matrix) error { return matrix.Multiply(c, a, b) }

// Algorithms lists the accepted WithAlgorithm names.
func Algorithms() []string {
	var names []string
	for _, s := range sched.Algorithms() {
		names = append(names, s.Name())
	}
	return names
}

// config is the resolved option set of one Session.
type config struct {
	rt          Runtime
	scheduler   sched.Scheduler
	algorithm   string
	pipelined   bool
	onePort     bool
	procs       int
	platform    *platform.Platform
	pacing      time.Duration
	adaptive    bool
	drift       float64
	panelCache  bool
	redundancy  coded.Mode
	redundancyR int

	// explicit-set markers, so runtimes can reject options that do not apply
	// to them instead of silently ignoring them.
	setAlgorithm, setPipelined, setOnePort, setProcs, setPlatform, setPacing, setAdaptive, setPanelCache, setRedundancy bool
}

// redundant reports whether this session's jobs run through the k-of-n gate.
func (c *config) redundant() bool {
	return c.redundancy != "" && c.redundancy != coded.ModeOff
}

// Option configures a Session at Open.
type Option func(*config) error

// WithRuntime selects the execution runtime. Default: InProcess().
func WithRuntime(rt Runtime) Option {
	return func(c *config) error {
		if rt == nil {
			return fmt.Errorf("matmul: nil runtime")
		}
		c.rt = rt
		return nil
	}
}

// WithAlgorithm picks the scheduling algorithm by name (see Algorithms).
// Default: Het, the paper's best-of-eight heterogeneous meta-algorithm.
func WithAlgorithm(name string) Option {
	return func(c *config) error {
		s, err := sched.Lookup(name)
		if err != nil {
			return fmt.Errorf("matmul: %w", err)
		}
		c.scheduler, c.algorithm, c.setAlgorithm = s, s.Name(), true
		return nil
	}
}

// WithPipelined selects between the concurrent dispatch core (true, the
// default) and the strictly sequential op loop, which only the InProcess
// runtime runs. C is bitwise-identical either way.
func WithPipelined(on bool) Option {
	return func(c *config) error {
		c.pipelined, c.setPipelined = on, true
		return nil
	}
}

// WithOnePort serializes transfer slots across workers, restoring the
// paper's one-port master: transfers overlap compute but never each other.
// Meaningful with WithPacing in-process, and on the send side distributed.
func WithOnePort(on bool) Option {
	return func(c *config) error {
		c.onePort, c.setOnePort = on, true
		return nil
	}
}

// WithProcs bounds the goroutines each in-process worker spends on one
// installment's block updates (≤1: sequential). The per-block arithmetic
// order — and therefore the result — is unchanged.
func WithProcs(n int) Option {
	return func(c *config) error {
		c.procs, c.setProcs = n, true
		return nil
	}
}

// WithPlatform sets the modeled star platform (c_i, w_i, m_i per worker)
// that scheduling plans against. In-process it defaults to a small
// heterogeneous testbed; distributed it defaults to one homogeneous slot
// per dialed worker and, when given, must describe exactly the dialed
// workers in order — each job's resource selection picks its lease from
// these specs.
func WithPlatform(workers ...Worker) Option {
	return func(c *config) error {
		pl, err := platform.New(workers...)
		if err != nil {
			return err
		}
		c.platform, c.setPlatform = pl, true
		return nil
	}
}

// WithPacing makes every in-process transfer cost modeled wall-clock time:
// sending X blocks to worker i sleeps X·c_i·d. Zero disables (full-speed
// verification runs).
func WithPacing(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("matmul: negative pacing %v", d)
		}
		c.pacing, c.setPacing = d, true
		return nil
	}
}

// WithAdaptive turns on the adaptive (elastic) runtime for InProcess and
// Distributed sessions: the session maintains live per-worker throughput
// estimates (EWMA over every observed transfer and compute, seeded from the
// declared platform), jobs run under the engine's elastic policy — un-dispatched
// chunks are re-planned onto the live estimates whenever a worker departs,
// a worker joins (Session.AddWorker, Distributed only), or an estimate
// drifts past the threshold — and Session.Stats exposes the estimates. On
// a Distributed session the estimates also drive each job's resource
// selection, and an idle worker is attached to a running job when no queued
// job needs it. The computed C stays bitwise-identical under every re-plan.
// drift sets the re-plan threshold as a relative estimate change; 0 selects
// the engine default (0.5), negative disables drift re-planning while
// keeping estimates, joins and departures.
//
// A Remote session rejects this option: elasticity lives daemon-side there
// (mmserve -adaptive, mmworker -join).
func WithAdaptive(drift float64) Option {
	return func(c *config) error {
		c.adaptive, c.drift, c.setAdaptive = true, drift, true
		return nil
	}
}

// WithPanelCache toggles operand-panel caching on runtimes with a wire
// (default on). Each job then carries its operands' digests to the
// scheduling server — the embedded one of a Distributed session, the
// daemon of a Remote one — which routes it toward workers already holding
// those panels and opens a cache epoch per lease, so workers that kept a
// panel from an earlier job skip its transfer. Workers without a cache
// (mmworker -cache-mb 0) degrade per link via the handshake; the computed
// C is bitwise-identical either way. The
// InProcess runtime rejects the option: its workers share the process
// memory, so there is nothing to cache.
func WithPanelCache(on bool) Option {
	return func(c *config) error {
		c.panelCache, c.setPanelCache = on, true
		return nil
	}
}

// WithRedundancy turns on proactive straggler mitigation for InProcess and
// Distributed sessions: each job's plan gains r redundant work units per
// wave and runs through the engine's k-of-n completion gate, so a stalled
// worker is absorbed the moment enough of the dispatched units finish — no
// heartbeat timeout on the completion path. mode selects the strategy:
//
//   - "replicated" duplicates the hottest chunk jobs onto other workers;
//     first result wins, laggards are wire-cancelled, and every committed
//     result is a verbatim systematic one, so C stays bitwise-identical to
//     the unredundant run.
//   - "coded" adds systematic MDS parity units over groups of compatible
//     jobs; straggler-free runs still commit systematic results verbatim
//     (bitwise-identical C), and a decode reconstructs only the members
//     that never returned.
//   - "off" disables (the default).
//
// r ≤ 0 defaults to 1. On an adaptive session (WithAdaptive) the measured
// estimates price redundant placement; the k-of-n gate subsumes the
// elastic policy for redundant jobs, so drift re-planning is idle while they
// run. A Remote session rejects this option: redundancy lives daemon-side
// there (mmserve -redundancy).
func WithRedundancy(mode string, r int) Option {
	return func(c *config) error {
		m, err := coded.ParseMode(mode)
		if err != nil {
			return fmt.Errorf("matmul: %w", err)
		}
		if r <= 0 {
			r = 1
		}
		c.redundancy, c.redundancyR, c.setRedundancy = m, r, true
		return nil
	}
}

// Session is an open connection to one runtime: the single way in. A
// Session is safe for concurrent Submits, and on every runtime jobs run
// concurrently: in-process on the shared goroutine workers, Distributed and
// Remote on disjoint leases of the fleet, queueing while no worker is
// idle. A failed or cancelled job leaves the session usable.
type Session struct {
	cfg config
	rts runtimeSession

	ctx    context.Context // session-lifetime context, derived from Open's
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // outstanding job goroutines
}

// Open validates the options, opens the selected runtime (dialing its
// workers or daemon), and returns the Session. ctx governs both the open
// and the session's lifetime: cancelling it cancels every outstanding job,
// so wiring a signal context here gives SIGINT-triggered graceful
// cancellation end to end. Close the session when done.
func Open(ctx context.Context, opts ...Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := config{
		rt:         InProcess(),
		scheduler:  sched.Het{},
		algorithm:  "Het",
		pipelined:  true,
		panelCache: true,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.adaptive && cfg.setPipelined && !cfg.pipelined {
		// The elastic executor is inherently concurrent; honoring a request
		// for the strictly sequential op loop would silently drop one of the
		// two options.
		return nil, fmt.Errorf("matmul: WithAdaptive requires the concurrent executor; drop WithPipelined(false)")
	}
	if cfg.redundant() && cfg.setPipelined && !cfg.pipelined {
		// The k-of-n gate races concurrent units; the sequential op loop has
		// nothing to race.
		return nil, fmt.Errorf("matmul: WithRedundancy requires the concurrent executor; drop WithPipelined(false)")
	}
	rts, err := cfg.rt.open(ctx, &cfg)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	return &Session{cfg: cfg, rts: rts, ctx: sctx, cancel: cancel}, nil
}

// SubmitOption configures one submission (Session options configure the
// whole session; see WithClass).
type SubmitOption func(*submitConfig) error

// submitConfig is the resolved per-submission option set.
type submitConfig struct {
	class serve.JobClass
}

// Classes lists the accepted WithClass names, in priority order.
func Classes() []string { return []string{"interactive", "standard", "batch"} }

// WithClass declares the job's SLO class ("interactive", "standard" or
// "batch"; default standard). On a Remote session the class rides the
// submission frame to the mmserve daemon, where the priority queue policy
// dispatches interactive jobs first and token-bucket admission buckets by
// class (see mmserve -queue and -admission). A Distributed session's
// embedded server queues in submission order without admission control,
// and the InProcess runtime has no queue: there the class is recorded on
// the Job handle (Status().Class) and otherwise inert.
func WithClass(name string) SubmitOption {
	return func(sc *submitConfig) error {
		class, err := serve.ParseClass(name)
		if err != nil {
			return fmt.Errorf("matmul: unknown job class %q (have %s)", name, strings.Join(Classes(), ", "))
		}
		sc.class = class
		return nil
	}
}

// Submit admits one product C ← C + A·B (all matrices blocked with the same
// edge q; C is updated in place) and returns its Job handle immediately.
// The A and B positions each take a *Matrix or an installed *Operand,
// interchangeably: a plain matrix is wrapped in a transient handle, an
// installed one reuses its memoized panel digests — the cheap way to submit
// the same operand many times (see Session.Install). Per-job options follow
// C (WithClass declares the SLO class). The job is canceled
// when ctx ends, when Job.Cancel is called, or when the session closes —
// whichever comes first. Waiting is separate: use Job.Wait or Job.Done.
//
// A job that fails or is canceled may leave C partially updated, on every
// runtime. On Remote the daemon's reply is decoded straight into C: a job that
// fails before the result frame arrives leaves C untouched, one that fails
// while it is being read (connection lost mid-reply) leaves C overwritten in part.
func (s *Session) Submit(ctx context.Context, a, b any, c *Matrix, opts ...SubmitOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var sc submitConfig
	for _, opt := range opts {
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	ao, aDone, err := s.operandOf(a, "A")
	if err != nil {
		return nil, err
	}
	bo, bDone, err := s.operandOf(b, "B")
	if err != nil {
		aDone()
		return nil, err
	}
	release := func() { aDone(); bDone() }
	am, bm := ao.mat, bo.mat
	if c == nil {
		release()
		return nil, fmt.Errorf("matmul: submit needs A, B and C")
	}
	if am.Q != bm.Q || am.Q != c.Q {
		release()
		return nil, fmt.Errorf("matmul: block edges differ: A q=%d, B q=%d, C q=%d", am.Q, bm.Q, c.Q)
	}
	if am.Rows != c.Rows || bm.Cols != c.Cols || bm.Rows != am.Cols {
		release()
		return nil, fmt.Errorf("matmul: shape mismatch A %dx%d, B %dx%d, C %dx%d",
			am.Rows, am.Cols, bm.Rows, bm.Cols, c.Rows, c.Cols)
	}
	inst := sched.Instance{R: c.Rows, S: c.Cols, T: am.Cols}
	if err := inst.Validate(); err != nil {
		release()
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		release()
		return nil, fmt.Errorf("matmul: session is closed")
	}
	s.wg.Add(1)
	s.mu.Unlock()

	jctx, jcancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(s.ctx, jcancel) // session close/cancel fans out
	j := &Job{cancel: jcancel, done: make(chan struct{}), class: sc.class}
	if _, ok := s.rts.(*inProcessSession); ok {
		// In-process runs record their timeline as they go; Job.Trace exposes
		// it. Distributed and Remote jobs run under a scheduling server, which
		// records them itself.
		j.rec = trace.NewRecorder(s.cfg.algorithm)
		jctx = trace.NewContext(jctx, j.rec)
	}
	go func() {
		defer s.wg.Done()
		defer unlink()
		defer release()
		err := s.rts.run(jctx, j, ao, bo, c)
		jcancel()
		j.finish(err)
	}()
	return j, nil
}

// WorkerStats is one worker's row in a session's live statistics: the
// declared platform spec next to the measured estimates.
type WorkerStats struct {
	Name string
	// Kernel is the block-update kernel the worker computes with (all
	// kernels produce bitwise-identical C): in-process workers share the
	// session's kernel; distributed/remote workers report their own,
	// empty if the daemon predates kernel reporting.
	Kernel string
	Spec   Worker // declared c_i, w_i, m_i
	// CPerBlock and WPerUpdate are the measured link and compute costs (EWMA
	// over the session's observed transfers and computes); zero until the
	// worker's first observation.
	CPerBlock  time.Duration
	WPerUpdate time.Duration
	Samples    int // observations folded into the estimates
	// Panel-cache effectiveness on caching runtimes: handshake hit/miss
	// counts and operand bytes shipped versus skipped over this worker's
	// link, plus the panel bytes believed resident in its cache.
	CacheHits       int64
	CacheMisses     int64
	CacheSentBytes  int64
	CacheSavedBytes int64
	ResidentPanels  int
	ResidentBytes   int64
}

// PanelCacheStats aggregates operand-panel cache effectiveness across a
// session's workers: how many handshake probes hit, and how many operand
// bytes residency kept off the wire versus how many still moved.
type PanelCacheStats struct {
	PanelHits, PanelMisses  int64
	ASentBytes, ASavedBytes int64
	BSentBytes, BSavedBytes int64
	ResidentBytes           int64 // panel bytes believed resident fleet-wide
}

// SessionStats is a session's live view of its fleet.
type SessionStats struct {
	// Kernel names the block-update kernel of the process applying updates
	// locally — this process for InProcess and Distributed masters, the
	// daemon for Remote. Per-worker kernels sit in the Workers rows.
	Kernel   string
	Adaptive bool // estimates maintained and used for re-planning
	// Replans counts elastic re-plans (join/depart/drift) across the
	// session's jobs. A Remote session reports the *daemon's* totals — its
	// estimates and re-plans span every client's jobs, which is exactly
	// what makes them useful.
	Replans int
	// PanelCache totals operand-panel caching (nil when the runtime does
	// not cache: InProcess, WithPanelCache(false), or a non-caching
	// daemon). Remote reports the daemon's fleet-wide totals.
	PanelCache *PanelCacheStats
	// Redundancy names the k-of-n gate mode when proactive straggler
	// mitigation is on ("replicated" or "coded"; empty when off). Remote
	// reports the daemon's configured mode.
	Redundancy string
	Workers    []WorkerStats
}

// Stats reports the session's per-worker statistics: the declared platform
// and — on an adaptive session (WithAdaptive), or a Remote session whose
// daemon runs adaptive — the live measured throughput estimates. On Remote
// the snapshot is fetched from the daemon.
func (s *Session) Stats() (SessionStats, error) {
	ctx, cancel := context.WithTimeout(s.ctx, 30*time.Second)
	defer cancel()
	return s.rts.stats(ctx)
}

// AddWorker joins one more mmworker daemon to a Distributed session after
// Open — the elastic half of fleet membership. The address is dialed within
// ctx; once registered the worker is leasable by every later job, and on an
// adaptive session (WithAdaptive) it is also attached to a running job
// when no queued job needs it: the elastic executor re-plans un-dispatched
// chunks onto it. spec is the worker's declared platform description (at
// most one; default c=1, w=1, m=60). Returns the new worker's index.
//
// InProcess sessions reject AddWorker (goroutine workers are fixed at
// Open); Remote sessions reject it too — register with the daemon instead
// (mmworker -join).
func (s *Session) AddWorker(ctx context.Context, addr string, spec ...Worker) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(spec) > 1 {
		return 0, fmt.Errorf("matmul: AddWorker takes at most one spec")
	}
	w := Worker{C: 1, W: 1, M: 60}
	if len(spec) == 1 {
		w = spec[0]
	}
	ds, ok := s.rts.(*distributedSession)
	if !ok {
		return 0, fmt.Errorf("matmul: this runtime cannot add workers after Open (Distributed sessions can; an mmserve fleet grows via mmworker -join)")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("matmul: session is closed")
	}
	s.mu.Unlock()
	return ds.addWorker(ctx, addr, w)
}

// Close cancels every outstanding job, waits for them to unwind, and closes
// the runtime (releasing distributed worker sessions back to their daemons,
// which keep serving). Idempotent; safe after a SIGINT cancellation has
// already torn the jobs down.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return s.rts.close()
}
