package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/coded"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// JobState is a submitted product's lifecycle state.
type JobState uint8

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	// JobCanceled: ended by Cancel (or server shutdown) before completing —
	// dequeued if it had not leased yet, its lease aborted if it had.
	JobCanceled
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config tunes the job-queue server.
type Config struct {
	// Scheduler plans each job on its selected worker subset. Default: the
	// paper's Het meta-algorithm (best of the eight selection variants).
	Scheduler sched.Scheduler
	// MaxWorkersPerJob caps any one lease. 0 means no fixed cap; the server
	// still splits the idle fleet evenly across the jobs waiting in the
	// queue, so two concurrent submissions to a 4-worker fleet get disjoint
	// 2-worker leases rather than running one after the other.
	MaxWorkersPerJob int
	// Adaptive turns on the elastic runtime: the server keeps online
	// per-worker throughput estimates (EWMA over observed transfers and
	// computes, seeded from the declared specs), resource selection
	// shortlists by *measured* speed instead of declared speed, each lease
	// runs under the engine's elastic policy (mid-job re-planning on
	// departures and estimate drift), and idle workers — including ones
	// registered after startup via Fleet.Add — are attached to running jobs
	// whenever no queued job is waiting for them.
	Adaptive bool
	// DriftThreshold is the relative estimate movement that re-plans a
	// running lease (see engine.Elastic). 0: engine default; negative:
	// drift re-planning off. Only meaningful with Adaptive.
	DriftThreshold float64
	// Redundancy turns on proactive straggler mitigation: every lease runs
	// under the engine's k-of-n completion gate with the named coded mode
	// ("replicated" or "coded"; empty or "off" keeps it off). Redundant
	// leases run under the gate instead of the elastic policy — the gate's
	// speculation subsumes failover, and adapt estimates still price the
	// redundancy placement — so mid-run estimate re-planning is traded for
	// tail-latency cover.
	Redundancy string
	// RedundancyFactor is the redundancy factor r handed to the planner
	// (replicas fleet-wide, parities per group). ≤ 0 asks the adapt estimates
	// to suggest one (at least 1, so crashes stay covered). Only meaningful
	// with Redundancy set.
	RedundancyFactor int
	// QueuePolicy picks which queued job each freed lease goes to:
	// PolicyFIFO (default — strict submission order), PolicySJF (least
	// predicted work first, starvation-bounded by AgingBound), or
	// PolicyPriority (SLO class order interactive → standard → batch, FIFO
	// within a class, aging-bounded across classes). Unknown names log a
	// warning and fall back to FIFO. Policies reorder lease admission only;
	// execution — and C — is identical under every policy.
	QueuePolicy string
	// AgingBound caps how long sjf/priority may bypass the queue's oldest
	// job; past it the oldest job is dispatched next regardless of size or
	// class. 0 means the 15s default; it is the knob that turns "SJF can
	// starve large jobs" into a bounded extra wait.
	AgingBound time.Duration
	// AdmissionRate, when > 0, turns on token-bucket admission control:
	// each SLO class refills its own bucket at this rate (jobs/second), and
	// a submission finding its class's bucket empty is rejected at Submit
	// (the client sees the error immediately and can back off) instead of
	// joining an unbounded queue. 0 keeps admission unbounded.
	AdmissionRate float64
	// AdmissionBurst is each class bucket's capacity — the burst length
	// admitted at full speed before rejections start. ≤ 0 defaults to one
	// second of refill (at least 1). Only meaningful with AdmissionRate.
	AdmissionBurst int
	// NoCache disables operand-panel caching: jobs are submitted without
	// panel digests, leases skip the have/need handshake, and resource
	// selection ignores operand affinity. The zero value keeps caching on —
	// a worker daemon without a cache degrades per-link via the handshake,
	// so a caching server is always safe.
	NoCache bool
	// Logger, when non-nil, receives job lifecycle events as structured
	// records carrying job, worker, and lease attrs; nil discards them.
	Logger *slog.Logger
	// TraceDir, when non-empty, records every lease's transfers and writes
	// one Chrome trace-event JSON file per completed job
	// (job-<id>.trace.json) into the directory — loadable in Perfetto
	// (ui.perfetto.dev) or chrome://tracing. Write failures are logged,
	// never fail the job.
	TraceDir string
}

// logger resolves the server's logger: Logger, or discard.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.NopLogger()
}

// job is one admitted product. The a/b/c matrices are owned by the server
// from Submit until the job leaves JobRunning; c is updated in place.
type job struct {
	id      uint64
	inst    sched.Instance
	q       int
	a, b, c *matrix.BlockMatrix
	// panels carries the job's operand-panel digests on a caching server
	// (nil when caching is off): the input to affinity-aware selection and
	// to each lease's install-by-digest epoch.
	panels *cache.JobPanels
	// class is the job's SLO class: the priority policy's ordering key and
	// the admission/metrics partition. Zero (standard) for classless frames.
	class JobClass

	state     JobState
	sel       *Selection
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{} // closed when the job reaches a terminal state
	// ctx governs the job's execution; cancel fires on Cancel (and on every
	// terminal transition, releasing the context's resources). A running
	// lease executes under ctx, so cancelling aborts its master's in-flight
	// I/O without touching any other lease.
	ctx    context.Context
	cancel context.CancelFunc

	// Elastic-lease state (Adaptive servers only). lease is the fleet
	// indices currently held — sel.Workers plus any worker attached mid-job
	// — guarded by the server mutex; leaseMu serializes a mid-job attach
	// against the lease's end-of-run detach, so a worker is never joined to
	// a master whose connections were already handed back. replans counts
	// the lease's executor re-plans.
	m             *mmnet.Master
	lease         []int
	join          chan int
	view          *adapt.View
	leaseMu       sync.Mutex
	leaseDetached bool
	replans       atomic.Int32

	// redStats is the k-of-n gate's outcome, harvested when a redundant
	// lease ends (nil otherwise). trace is the lease's recorded timeline,
	// retained at job end so clients can fetch it after completion.
	redStats *RedundancyStats
	trace    *trace.Trace
}

// RedundancyStats is one redundant job's k-of-n gate outcome.
type RedundancyStats struct {
	Mode          string `json:"mode"`
	Units         int64  `json:"units"`                    // redundant units dispatched
	DuplicateWins int64  `json:"duplicate_wins,omitempty"` // late copies discarded
	WastedBytes   int64  `json:"wasted_bytes,omitempty"`   // wire bytes of those copies
	Decodes       int64  `json:"decodes,omitempty"`        // results reconstructed from parity
	Absorbed      int64  `json:"absorbed,omitempty"`       // in-flight units wire-cancelled
	Speculative   int64  `json:"speculative,omitempty"`    // of Units, idle-worker speculation
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID        uint64         `json:"id"`
	State     string         `json:"state"`
	Class     string         `json:"class,omitempty"`
	Instance  sched.Instance `json:"instance"`
	Q         int            `json:"q"`
	Algorithm string         `json:"algorithm,omitempty"`
	Workers   []int          `json:"workers,omitempty"` // fleet indices of the lease, mid-job joins included
	Replans   int            `json:"replans,omitempty"` // elastic re-plans (join/depart/drift) of the lease
	// Redundancy is the k-of-n gate outcome of a redundant lease (nil when
	// the server runs without redundancy or the job has not finished).
	Redundancy *RedundancyStats `json:"redundancy,omitempty"`
	Error      string           `json:"error,omitempty"`
	ElapsedMS  float64          `json:"elapsed_ms"` // run time (so far) once started
}

// Stats is the service snapshot reported to clients.
type Stats struct {
	// Kernel is the block-update kernel the daemon process itself selected
	// (workers report their own in their WorkerMetric rows — a heterogeneous
	// fleet legitimately mixes kernels, results stay bitwise-identical).
	Kernel     string         `json:"kernel,omitempty"`
	Workers    []WorkerMetric `json:"workers"`
	Adaptive   bool           `json:"adaptive,omitempty"`   // measured-speed selection + elastic leases on
	Redundancy string         `json:"redundancy,omitempty"` // k-of-n gate mode when proactive mitigation is on
	Cache      *CacheTotals   `json:"cache,omitempty"`      // panel-cache effectiveness; nil when caching is off
	// QueuePolicy is the active dispatch policy (fifo, sjf, priority).
	QueuePolicy string `json:"queue_policy,omitempty"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	Done        int    `json:"done"`
	Failed      int    `json:"failed"`
	Canceled    int    `json:"canceled"`
	// QueuedByClass splits Queued by SLO class (class names with zero queued
	// jobs are omitted); it always sums to Queued and always agrees with the
	// mm_serve_queue_depth gauge family.
	QueuedByClass map[string]int `json:"queued_by_class,omitempty"`
	// AdmissionRejected counts submissions shed by token-bucket admission,
	// by class; nil when admission is unbounded.
	AdmissionRejected map[string]int64 `json:"admission_rejected,omitempty"`
	Jobs              []JobStatus      `json:"jobs"` // submission order; terminal jobs pruned past maxJobHistory
}

// CacheTotals aggregates panel-cache effectiveness across all completed
// leases of a caching server: how many handshake probes hit, and how many
// operand bytes residency kept off the wire versus how many still moved.
type CacheTotals struct {
	PanelHits     int64 `json:"panel_hits"`
	PanelMisses   int64 `json:"panel_misses"`
	ASentBytes    int64 `json:"a_sent_bytes"`
	ASavedBytes   int64 `json:"a_saved_bytes"`
	BSentBytes    int64 `json:"b_sent_bytes"`
	BSavedBytes   int64 `json:"b_saved_bytes"`
	ResidentBytes int64 `json:"resident_bytes"` // panel bytes believed resident fleet-wide right now
}

// cacheCum is one worker's cumulative cache counters across its leases,
// accumulated at job end from each lease's per-link stats.
type cacheCum struct {
	hits, misses                 int64
	aSent, aSaved, bSent, bSaved int64
}

// maxJobHistory bounds the completed-job records the daemon retains for
// Status: the oldest terminal jobs are pruned past this, so a long-lived
// service neither grows without bound nor overflows a stats reply. Operand
// matrices are released the moment a job completes either way (submitters
// hold their own references; C is updated in place).
const maxJobHistory = 4096

// Server admits products into a queue and runs them on disjoint leased
// subsets of a persistent fleet, concurrently. It is the paper's
// master-process role stretched across many products: resource selection per
// job, execution through the engine's one concurrent core, failover within
// each lease.
type Server struct {
	fleet *Fleet
	cfg   Config
	log   *slog.Logger
	// policy is the validated queue policy (cfg.QueuePolicy with unknown
	// names already demoted to fifo); adm is token-bucket admission, nil
	// when unbounded.
	policy string
	adm    *admission
	// tracker holds the fleet-indexed live throughput estimates of an
	// Adaptive server (nil otherwise). Each lease observes through a
	// remapping view, so every job's measurements land here.
	tracker *adapt.Tracker
	// addMu serializes fleet growth so fleet indices and tracker indices
	// cannot interleave differently.
	addMu sync.Mutex

	// registry tracks which operand panels each fleet worker is believed to
	// hold (nil when caching is off). It is advisory — correctness comes
	// from each lease's own handshake — feeding only affinity-aware
	// selection, and is invalidated whenever a worker goes down. cacheCum
	// accumulates per-worker cache counters as leases complete; both are
	// guarded by cacheMu (the registry locks itself, the map does not).
	registry *cache.Registry
	cacheMu  sync.Mutex
	cacheCum map[int]*cacheCum

	mu      sync.Mutex
	queue   []*job
	jobs    map[uint64]*job
	order   []uint64
	nextID  uint64
	running int
	closed  bool
	wake    chan struct{}
	loop    sync.WaitGroup
}

// trackerUnit is the nominal wall-clock length of one declared model time
// unit when seeding the estimate tracker: declared c_i/w_i become
// milliseconds. Only the declared *ratios* matter — the first observed jobs
// pull every used worker onto the measured scale — and the same unit
// converts estimates back into the model-unit platform the schedulers see.
const trackerUnit = time.Millisecond

// NewServer starts the scheduling loop over an existing fleet. The fleet
// stays caller-owned: Close the server first, then the fleet.
func NewServer(fleet *Fleet, cfg Config) *Server {
	s := &Server{
		fleet: fleet,
		cfg:   cfg,
		log:   cfg.logger(),
		jobs:  make(map[uint64]*job),
		wake:  make(chan struct{}, 1),
	}
	if cfg.Adaptive {
		s.tracker = adapt.NewTracker(fleet.Specs(), trackerUnit, 0)
	}
	policy, err := ParseQueuePolicy(cfg.QueuePolicy)
	if err != nil {
		s.log.Warn("unknown queue policy; using fifo", "policy", cfg.QueuePolicy, "err", err)
	}
	s.policy = policy
	s.adm = newAdmission(cfg.AdmissionRate, cfg.AdmissionBurst)
	if _, err := coded.ParseMode(cfg.Redundancy); err != nil {
		s.log.Warn("invalid redundancy mode; proactive mitigation stays off",
			"mode", cfg.Redundancy, "err", err)
	}
	if !cfg.NoCache {
		s.registry = cache.NewRegistry()
		s.cacheCum = make(map[int]*cacheCum)
		// A worker that goes down for any reason — crash, keepalive loss,
		// failed recycle — re-dials into a fresh session whose cache content
		// is unknown; drop its residency so affinity never chases ghosts.
		fleet.SetOnDown(func(i int) { s.registry.Invalidate(i) })
	}
	s.loop.Add(1)
	go s.schedule()
	return s
}

// AddWorker registers a worker with the fleet after startup (see Fleet.Add)
// and, on an adaptive server, starts tracking its throughput. The scheduler
// is kicked so a queued job can lease the newcomer immediately; if the queue
// is empty and a lease is running, the next scheduling pass attaches it to a
// running job instead. Returns the fleet index.
func (s *Server) AddWorker(addr string, spec platform.Worker) (int, error) {
	return s.addWorker(addr, spec, func() (int, error) { return s.fleet.Add(addr, spec) })
}

// AddWorkerConn is AddWorker for a worker whose session the caller already
// dialed, within its own context: wc joins the fleet idle. The fleet owns wc
// from the call on, on error too.
func (s *Server) AddWorkerConn(addr string, wc *mmnet.WorkerConn, spec platform.Worker) (int, error) {
	return s.addWorker(addr, spec, func() (int, error) { return s.fleet.addConn(addr, wc, spec) })
}

// addWorker runs one fleet growth under addMu and tracks the newcomer.
func (s *Server) addWorker(addr string, spec platform.Worker, add func() (int, error)) (int, error) {
	s.addMu.Lock()
	defer s.addMu.Unlock()
	i, err := add()
	if err != nil {
		return 0, err
	}
	if s.tracker != nil {
		if spec.Name == "" {
			spec.Name = addr
		}
		if g := s.tracker.Grow(spec, trackerUnit); g != i {
			// Cannot happen while addMu serializes growth; fail loudly if it
			// ever does rather than corrupt every later estimate lookup.
			s.log.Error("tracker index diverged from fleet index", "tracker", g, "worker", i)
		}
	}
	s.log.Info("worker joined the fleet", "addr", addr, "worker", i)
	s.kick()
	return i, nil
}

// selectionSpecs returns the per-worker specs resource selection should plan
// with: declared specs on a static server, measured estimates (converted
// back to model units) wherever observations exist on an adaptive one.
func (s *Server) selectionSpecs() []platform.Worker {
	specs := s.fleet.Specs()
	if s.tracker == nil {
		return specs
	}
	for i, e := range s.tracker.Snapshot() {
		if i >= len(specs) {
			break
		}
		if e.Transfers > 0 && e.C > 0 {
			specs[i].C = e.C / trackerUnit.Seconds()
		}
		if e.Computes > 0 && e.W > 0 {
			specs[i].W = e.W / trackerUnit.Seconds()
		}
	}
	return specs
}

// Submit admits C += A·B (all matrices blocked with edge q) and returns the
// job id. The matrices are owned by the server until the job completes; C is
// updated in place. Submit never blocks on fleet capacity — admission is a
// queue, execution happens as leases free up. On a caching server the
// operand panels are digested here, once per submission.
func (s *Server) Submit(a, b, c *matrix.BlockMatrix) (uint64, error) {
	return s.submit(a, b, c, nil, ClassStandard)
}

// SubmitPanels is Submit with caller-computed operand-panel digests, for
// clients that already hold them (an operand installed once and resubmitted
// many times): the server trusts jp instead of re-hashing A and B. jp must
// describe exactly these operands — digests are content addresses, and a
// stale set makes workers reuse the wrong panels. On a non-caching server jp
// is ignored; a nil jp degrades to Submit.
func (s *Server) SubmitPanels(a, b, c *matrix.BlockMatrix, jp *cache.JobPanels) (uint64, error) {
	return s.SubmitClass(a, b, c, jp, ClassStandard)
}

// SubmitClass is SubmitPanels with an explicit SLO class: the priority
// policy's ordering key and the admission-control partition. jp may be nil
// (digested server-side on a caching server, exactly like Submit).
func (s *Server) SubmitClass(a, b, c *matrix.BlockMatrix, jp *cache.JobPanels, class JobClass) (uint64, error) {
	if jp != nil && (a == nil || b == nil ||
		jp.T != a.Cols || jp.Q != a.Q || len(jp.ARows) != a.Rows || len(jp.BCols) != b.Cols) {
		return 0, fmt.Errorf("serve: panel digests do not match the submitted operands")
	}
	return s.submit(a, b, c, jp, class)
}

// ErrAdmission marks submissions shed by token-bucket admission control;
// clients can errors.Is for it and back off.
var ErrAdmission = errors.New("admission rejected")

func (s *Server) submit(a, b, c *matrix.BlockMatrix, jp *cache.JobPanels, class JobClass) (uint64, error) {
	if a == nil || b == nil || c == nil {
		return 0, fmt.Errorf("serve: submit needs A, B and C")
	}
	if a.Q != b.Q || a.Q != c.Q {
		return 0, fmt.Errorf("serve: block edges differ: A q=%d, B q=%d, C q=%d", a.Q, b.Q, c.Q)
	}
	inst := sched.Instance{R: c.Rows, S: c.Cols, T: a.Cols}
	if a.Rows != c.Rows || b.Cols != c.Cols || b.Rows != a.Cols {
		return 0, fmt.Errorf("serve: shape mismatch A %dx%d, B %dx%d, C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	if !s.adm.take(class) {
		mQueueRejected.With(class.String()).Inc()
		s.log.Info("job rejected by admission control", "class", class.String(),
			"rate", s.cfg.AdmissionRate)
		return 0, fmt.Errorf("serve: %w: class %s exceeded %.3g jobs/s", ErrAdmission, class, s.cfg.AdmissionRate)
	}
	if s.registry != nil && jp == nil {
		jp = cache.PanelsForJob(a, b)
	} else if s.registry == nil {
		jp = nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("serve: server is closed")
	}
	s.nextID++
	jctx, jcancel := context.WithCancel(context.Background())
	j := &job{
		id: s.nextID, inst: inst, q: a.Q, a: a, b: b, c: c, panels: jp, class: class,
		state: JobQueued, submitted: time.Now(), done: make(chan struct{}),
		ctx: jctx, cancel: jcancel,
	}
	s.queue = append(s.queue, j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	mJobsSubmitted.Inc()
	gJobsQueued.Add(1)
	gQueueDepth.With(class.String()).Add(1)
	s.log.Info("job queued",
		"job", j.id, "class", class.String(), "r", inst.R, "s", inst.S, "t", inst.T, "q", a.Q)
	s.kick()
	return j.id, nil
}

// Wait blocks until job id completes and returns its terminal error (nil for
// a successful run; the submitted C has been updated in place).
func (s *Server) Wait(id uint64) error {
	return s.WaitContext(context.Background(), id)
}

// WaitContext is Wait under a context: it returns ctx.Err() if ctx ends
// first. The job itself keeps running — abandoning a wait is not a cancel;
// use Cancel for that.
func (s *Server) WaitContext(ctx context.Context, id uint64) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown job %d", id)
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel ends job id: a queued job is dequeued without ever leasing workers;
// a running job's lease is aborted (its master's in-flight I/O interrupted,
// its workers handed back to the fleet for re-dial) while every other
// concurrent lease keeps running untouched. Cancelling a terminal job is a
// no-op. The job's waiters observe an error wrapping context.Canceled.
func (s *Server) Cancel(id uint64) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: unknown job %d", id)
	}
	switch j.state {
	case JobQueued:
		s.dequeueLocked(j)
		s.finishLocked(j, JobCanceled, fmt.Errorf("serve: job %d canceled while queued: %w", id, context.Canceled))
		s.mu.Unlock()
		s.log.Info("job canceled while queued", "job", id)
		s.kick()
	case JobRunning:
		cancel := j.cancel
		s.mu.Unlock()
		s.log.Info("job cancel requested; aborting its lease", "job", id)
		cancel() // the run goroutine observes the abort and finishes the job
	default:
		s.mu.Unlock() // already terminal
	}
	return nil
}

// Status snapshots the fleet and every job. On an adaptive server the
// worker rows carry the live measured estimates (ms per block moved, ms per
// update) next to the declared specs.
func (s *Server) Status() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Kernel: kernel.Name(), Workers: s.fleet.Metrics(), Adaptive: s.tracker != nil,
		QueuePolicy: s.policy, AdmissionRejected: s.adm.rejectedByClass(),
	}
	if len(s.queue) > 0 {
		st.QueuedByClass = make(map[string]int)
		for _, j := range s.queue {
			st.QueuedByClass[j.class.String()]++
		}
	}
	if mode, err := coded.ParseMode(s.cfg.Redundancy); err == nil && mode != coded.ModeOff {
		st.Redundancy = string(mode)
	}
	if s.registry != nil {
		tot := &CacheTotals{}
		s.cacheMu.Lock()
		for i := range st.Workers {
			if cum := s.cacheCum[i]; cum != nil {
				w := &st.Workers[i]
				w.CacheHits, w.CacheMisses = cum.hits, cum.misses
				w.SentBytes = cum.aSent + cum.bSent
				w.SavedBytes = cum.aSaved + cum.bSaved
				tot.PanelHits += cum.hits
				tot.PanelMisses += cum.misses
				tot.ASentBytes += cum.aSent
				tot.ASavedBytes += cum.aSaved
				tot.BSentBytes += cum.bSent
				tot.BSavedBytes += cum.bSaved
			}
			panels, bytes := s.registry.Resident(i)
			st.Workers[i].ResidentPanels = panels
			st.Workers[i].ResidentBytes = bytes
			tot.ResidentBytes += bytes
		}
		s.cacheMu.Unlock()
		st.Cache = tot
	}
	if s.tracker != nil {
		for i, e := range s.tracker.Snapshot() {
			if i >= len(st.Workers) {
				break
			}
			if e.Transfers+e.Computes > 0 {
				st.Workers[i].EstC = e.C * 1e3
				st.Workers[i].EstW = e.W * 1e3
				st.Workers[i].Samples = e.Transfers + e.Computes
			}
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		js := JobStatus{
			ID: j.id, State: j.state.String(), Class: j.class.String(),
			Instance: j.inst, Q: j.q,
			Replans: int(j.replans.Load()), Redundancy: j.redStats,
		}
		if j.sel != nil {
			js.Algorithm = j.sel.Algorithm
			js.Workers = append([]int(nil), j.sel.Workers...)
		}
		if len(j.lease) > 0 {
			js.Workers = append([]int(nil), j.lease...)
		}
		if j.err != nil {
			js.Error = j.err.Error()
		}
		switch j.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
			js.ElapsedMS = float64(time.Since(j.started)) / float64(time.Millisecond)
		case JobDone:
			st.Done++
			js.ElapsedMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		case JobFailed, JobCanceled:
			if j.state == JobFailed {
				st.Failed++
			} else {
				st.Canceled++
			}
			if !j.started.IsZero() {
				js.ElapsedMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
			}
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// Close stops admission, cancels every still-queued job (each done channel
// is failed with an error wrapping context.Canceled — no Wait is ever left
// hanging on a job that will not run), waits for running jobs and the
// scheduling loop to finish, and returns. The fleet is untouched.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.loop.Wait()
		return
	}
	s.closed = true
	for _, j := range s.queue {
		s.finishLocked(j, JobCanceled, fmt.Errorf("serve: server closed before the job ran: %w", context.Canceled))
	}
	s.queue = nil
	s.mu.Unlock()
	s.kick()
	s.loop.Wait()
}

// terminal reports whether state is a job's final state.
func terminal(state JobState) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// finishLocked marks j terminal, releases its operand matrices (submitters
// hold their own references; a successful job's C has been updated in
// place) and its context, wakes its waiters, and prunes the oldest terminal
// records past maxJobHistory. The caller holds s.mu.
func (s *Server) finishLocked(j *job, state JobState, err error) {
	switch j.state {
	case JobQueued:
		gJobsQueued.Add(-1)
		gQueueDepth.With(j.class.String()).Add(-1)
	case JobRunning:
		gJobsRunning.Add(-1)
	}
	mJobsFinished.With(state.String()).Inc()
	j.state, j.err, j.finished = state, err, time.Now()
	if !j.started.IsZero() {
		hJobSeconds.Observe(j.finished.Sub(j.started))
	}
	j.a, j.b, j.c = nil, nil, nil
	j.cancel()
	close(j.done)
	for len(s.order) > maxJobHistory {
		old := s.jobs[s.order[0]]
		if !terminal(old.state) {
			break
		}
		delete(s.jobs, old.id)
		s.order = s.order[1:]
	}
}

// kick nudges the scheduling loop without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// schedRetry is how often the admission loop re-tries a non-empty queue that
// found no lease: workers may be down (a re-dial or its backoff has to
// elapse) or all leased, and neither condition produces a kick by itself.
const schedRetry = 250 * time.Millisecond

// schedule is the admission loop: whenever kicked (submit, job completion),
// it leases disjoint worker subsets to as many queued jobs as the idle fleet
// can host, FIFO. A queue that cannot be served right now is re-tried on a
// timer, so jobs stranded by a fully-down fleet start as soon as a worker
// daemon comes back. The loop exits once the server is closed and the last
// running job has returned its lease.
func (s *Server) schedule() {
	defer s.loop.Done()
	for {
		for s.dispatchOne() {
		}
		// With the queue drained, any still-idle worker (a post-startup join,
		// a re-registered crash survivor) is offered to a running lease.
		s.offerIdleToRunning()
		s.mu.Lock()
		finished := s.closed && s.running == 0
		waiting := len(s.queue) > 0
		s.mu.Unlock()
		if finished {
			return
		}
		if waiting {
			select {
			case <-s.wake:
			case <-time.After(schedRetry):
			}
		} else {
			<-s.wake
		}
	}
}

// dispatchOne tries to start the job the queue policy picks next (the head
// under fifo — see pickLocked); it reports whether the loop should
// immediately try again (a job was started or dropped).
func (s *Server) dispatchOne() bool {
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.mu.Unlock()
		return false
	}
	j := s.pickLocked(time.Now())
	pending := len(s.queue) - 1
	s.mu.Unlock()

	// Everything slow — Idle (which kicks off re-dials of down workers) and
	// the scheduling simulations — runs without the server lock, so neither
	// a dead address nor a large instance's selection stalls Submit, Wait
	// or Status. The queue is re-checked before committing.
	avail := s.fleet.Idle()
	if len(avail) == 0 {
		return false
	}

	// Fleet sharing: the head job is offered its even share of the idle
	// workers, rounded up, so jobs queued behind it can lease the rest and
	// run concurrently. MaxWorkersPerJob caps the share further.
	share := len(avail)
	if pending > 0 {
		share = (len(avail) + pending) / (pending + 1)
	}
	if s.cfg.MaxWorkersPerJob > 0 && s.cfg.MaxWorkersPerJob < share {
		share = s.cfg.MaxWorkersPerJob
	}

	// On an adaptive server the specs below carry *measured* costs wherever a
	// worker has been observed — selection shortlists by live throughput, not
	// by what the operator declared at startup.
	specs := s.selectionSpecs()
	// On a caching server, workers already holding the job's operand panels
	// get their communication term discounted in the shortlist — affinity
	// biases selection toward warm caches without overriding measured load.
	var aff []float64
	if s.registry != nil && j.panels != nil {
		aff = make([]float64, len(specs))
		for _, i := range avail {
			if i < len(aff) {
				aff[i] = s.registry.Fraction(i, j.panels)
			}
		}
	}
	sel, err := SelectResources(specs, avail, share, j.inst, s.cfg.Scheduler, aff)
	permanent := false
	if err != nil {
		// The share-capped shortlist could not host the job: try everything
		// currently available before deciding anything — bending the
		// sharing cap beats stalling the queue.
		full, fullErr := SelectResources(specs, avail, 0, j.inst, s.cfg.Scheduler, aff)
		switch {
		case fullErr == nil:
			s.log.Warn("selection failed at share cap; using all available workers",
				"job", j.id, "share", share, "available", len(avail), "err", err)
			sel, err = full, nil
		case len(avail) < s.fleet.Size():
			// Even the available workers cannot host the job, but the
			// leased or down remainder might; retried by the scheduling
			// loop's timer.
			s.log.Info("job waiting: selection on partial fleet",
				"job", j.id, "available", len(avail), "fleet", s.fleet.Size(), "err", err)
			return false
		default:
			// The whole fleet cannot host the job; the uncapped attempt's
			// error is the real diagnosis, not the shortlist's.
			permanent, err = true, fullErr
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != JobQueued {
		return true // canceled (or the server closed) while we planned; re-examine
	}
	if permanent {
		s.dequeueLocked(j)
		s.finishLocked(j, JobFailed, err)
		s.log.Warn("job failed selection", "job", j.id, "err", err)
		return true
	}
	m, lerr := s.fleet.Lease(sel.Workers)
	if lerr != nil {
		// Transient (a keepalive just downed a worker between Idle and
		// Lease); retry on the next kick.
		s.log.Warn("lease failed", "job", j.id, "workers", fmt.Sprint(sel.Workers), "err", lerr)
		s.kick()
		return false
	}
	s.dequeueLocked(j)
	j.state, j.sel, j.started = JobRunning, sel, time.Now()
	hQueueWait.Observe(j.started.Sub(j.submitted))
	gJobsQueued.Add(-1)
	gQueueDepth.With(j.class.String()).Add(-1)
	gJobsRunning.Add(1)
	j.m = m
	j.lease = append([]int(nil), sel.Workers...)
	if s.tracker != nil {
		j.view = s.tracker.View(sel.Workers)
		j.join = make(chan int, 8)
	}
	s.running++
	s.log.Info("job running",
		"job", j.id, "lease", fmt.Sprint(sel.Workers),
		"algorithm", sel.Algorithm, "makespan", sel.Makespan)
	go s.run(j, m)
	return true
}

// offerIdleToRunning attaches idle workers to running adaptive leases when
// no queued job is waiting for them: a worker that registered after startup
// (or came back from a crash) starts contributing to a job already in
// flight instead of idling until the next submission. Each idle worker goes
// to the running job with the smallest current lease, respecting
// MaxWorkersPerJob.
func (s *Server) offerIdleToRunning() {
	if s.tracker == nil {
		return
	}
	s.mu.Lock()
	if s.closed || len(s.queue) > 0 || s.running == 0 {
		s.mu.Unlock()
		return
	}
	var running []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == JobRunning && j.join != nil {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	if len(running) == 0 {
		return
	}
	for _, i := range s.fleet.Idle() {
		s.mu.Lock()
		var best *job
		bestSize := 0
		for _, j := range running {
			if j.state != JobRunning {
				continue
			}
			size := len(j.lease)
			if s.cfg.MaxWorkersPerJob > 0 && size >= s.cfg.MaxWorkersPerJob {
				continue
			}
			held := false
			for _, w := range j.lease {
				if w == i {
					held = true
					break
				}
			}
			if held {
				continue
			}
			if best == nil || size < bestSize {
				best, bestSize = j, size
			}
		}
		s.mu.Unlock()
		if best == nil {
			return
		}
		s.attach(best, i)
	}
}

// attach joins idle fleet worker i to running job j's lease mid-job: the
// pooled connection moves into the lease's master, the job's estimator view
// grows, and the executor is told the new plan index so its next re-plan
// spreads un-dispatched chunks onto the newcomer.
func (s *Server) attach(j *job, i int) {
	j.leaseMu.Lock()
	defer j.leaseMu.Unlock()
	if j.leaseDetached {
		return // the run just completed; the worker stays idle for the queue
	}
	w, err := s.fleet.LeaseExtra(i, j.m)
	if err != nil {
		s.log.Warn("attach failed", "job", j.id, "worker", i, "err", err)
		return
	}
	s.mu.Lock()
	j.lease = append(j.lease, i)
	s.mu.Unlock()
	if vi := j.view.Append(i); vi != w {
		// Cannot happen while leaseMu pairs the two appends; fail loudly
		// rather than let estimates land on the wrong worker.
		s.log.Error("view index diverged from plan index", "job", j.id, "view", vi, "plan", w, "worker", i)
	}
	select {
	case j.join <- w:
		s.log.Info("worker joined the lease", "job", j.id, "worker", i, "plan", w)
	default:
		// The executor stopped listening (run completing); the connection
		// rides back to the pool through Return like any lease member.
	}
}

// run executes one leased job and returns the lease. Worker deaths inside
// the lease are the executor's failover problem (replay on lease survivors);
// only a lease with no survivors fails the job. The job's context governs
// the execution: Cancel aborts the lease's in-flight I/O, the lease is
// returned as failed (its sessions recycled, workers re-dialed — never
// pooled holding half a job), and no other lease feels a thing.
func (s *Server) run(j *job, m *mmnet.Master) {
	var err error
	if j.panels != nil {
		// Open the lease's cache epoch: handshake every link for the job's
		// panel digests so transfers for resident panels are skipped. A
		// handshake failure downs the link exactly like any other I/O error —
		// the executor's failover handles it.
		m.BeginJob(j.panels)
	}
	// Every lease records its timeline — the recorder is cheap and clients
	// can fetch a completed job's trace over the wire; TraceDir only decides
	// whether the Chrome-trace file is also exported below.
	ctx := j.ctx
	rec := trace.NewRecorder(j.sel.Algorithm)
	ctx = trace.NewContext(ctx, rec)
	// The lease's policies, as data for the one concurrent core. A redundant
	// lease is arbitrated by the k-of-n gate, its placement priced by the live
	// estimates when the server is adaptive; the gate's speculation and
	// wire-cancel replace elastic re-planning.
	var opts engine.Options
	if mode, _ := coded.ParseMode(s.cfg.Redundancy); mode != coded.ModeOff {
		opts.Redundancy, err = s.planRedundancy(j, m, mode)
	} else if j.view != nil {
		opts.Elastic = &engine.Elastic{
			Tracker:        j.view,
			Join:           j.join,
			DriftThreshold: s.cfg.DriftThreshold,
			OnReplan: func(reason string, pending int) {
				j.replans.Add(1)
				mReplans.Inc()
				s.log.Info("job re-planned", "job", j.id, "reason", reason, "redistributed", pending)
			},
		}
	}
	if err == nil {
		err = m.Execute(ctx, j.inst.T, j.sel.Plan, j.a, j.b, j.c, opts)
	}
	if red := opts.Redundancy; red != nil {
		st := red.Stats()
		j.redStats = &RedundancyStats{
			Mode: red.Mode, Units: st.Units, DuplicateWins: st.DuplicateWins,
			WastedBytes: st.WastedBytes, Decodes: st.Decodes,
			Absorbed: st.Absorbed, Speculative: st.Speculative,
		}
		mRedUnits.Add(st.Units)
		mRedDuplicateWins.Add(st.DuplicateWins)
		mRedWastedBytes.Add(st.WastedBytes)
		mRedDecodes.Add(st.Decodes)
		mRedAbsorbed.Add(st.Absorbed)
	}
	j.trace = rec.Trace()
	if s.cfg.TraceDir != "" {
		// Export before the terminal transition below closes j.done, so a
		// submitter returning from Wait always finds the file on disk.
		s.writeTrace(j.id, rec)
	}

	// End the lease: flag it detached first (under leaseMu) so no concurrent
	// attach can join a worker to a master whose connections are about to be
	// handed back, then return every held worker — mid-job joins included.
	j.leaseMu.Lock()
	j.leaseDetached = true
	j.leaseMu.Unlock()
	s.mu.Lock()
	lease := append([]int(nil), j.lease...)
	s.mu.Unlock()
	if j.panels != nil {
		// Harvest the lease's cache outcome *before* the workers go back to
		// the fleet: Return downs dead workers, and the OnDown invalidation
		// must win over anything absorbed here for a worker that did not
		// survive the job.
		s.absorbCache(j, m, lease)
	}
	s.fleet.Return(lease, m, err != nil)

	canceled := errors.Is(err, context.Canceled) || j.ctx.Err() != nil

	s.mu.Lock()
	switch {
	case err == nil:
		s.finishLocked(j, JobDone, nil)
	case canceled:
		if !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("serve: job %d canceled mid-run: %w (abort surfaced as: %v)", j.id, context.Canceled, err)
		}
		s.finishLocked(j, JobCanceled, err)
	default:
		s.finishLocked(j, JobFailed, err)
	}
	elapsed := j.finished.Sub(j.started)
	s.running--
	s.mu.Unlock()

	switch {
	case err == nil:
		s.log.Info("job done", "job", j.id, "elapsed", elapsed)
	case canceled:
		s.log.Info("job canceled; lease returned", "job", j.id, "elapsed", elapsed)
	default:
		s.log.Warn("job failed", "job", j.id, "err", err)
	}
	s.kick()
}

// planRedundancy builds the k-of-n gate input for one lease: mode and factor
// from the server config, placement priced by the job's estimator view when
// the server is adaptive. A factor ≤ 0 asks the estimates to suggest one —
// one unit per predicted straggler, floored at 1 so crashes stay covered.
func (s *Server) planRedundancy(j *job, m *mmnet.Master, mode coded.Mode) (*engine.Redundancy, error) {
	opts := coded.Options{Mode: mode, R: s.cfg.RedundancyFactor}
	if j.view != nil {
		opts.Estimator = j.view
	}
	if opts.R <= 0 {
		opts.R = 1
		if jobs, _, err := sim.JobsFromPlan(j.sel.Plan); err == nil && len(jobs) > 0 {
			ch := jobs[0].Chunk
			blocks := 2 * ch.Blocks()
			var updates int64
			for _, p := range jobs[0].Panels {
				blocks += (p[1] - p[0]) * (ch.H + ch.W)
				updates += int64(p[1]-p[0]) * int64(ch.H) * int64(ch.W)
			}
			workers := make([]int, m.Workers())
			for i := range workers {
				workers[i] = i
			}
			if r := adapt.SuggestRedundancy(workers, blocks, updates, opts.Estimator); r > opts.R {
				opts.R = r
			}
		}
	}
	return coded.Plan(j.inst.T, j.sel.Plan, j.a, j.c, m.Workers(), opts)
}

// JobTrace returns job id's recorded timeline, available once its lease has
// ended (every lease records; TraceDir only controls the on-disk export). An
// unknown id or a job that has not finished running errors.
func (s *Server) JobTrace(id uint64) (*trace.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %d", id)
	}
	if j.trace == nil {
		return nil, fmt.Errorf("serve: job %d has no trace (state %s)", id, j.state)
	}
	return j.trace, nil
}

// writeTrace exports one completed job's recorded timeline as Chrome
// trace-event JSON under cfg.TraceDir. Best-effort: failures are logged and
// the job's outcome is untouched.
func (s *Server) writeTrace(id uint64, rec *trace.Recorder) {
	path := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("job-%d.trace.json", id))
	f, err := os.Create(path)
	if err != nil {
		s.log.Warn("trace export failed", "job", id, "err", err)
		return
	}
	err = rec.Trace().WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.log.Warn("trace export failed", "job", id, "path", path, "err", err)
		return
	}
	s.log.Info("trace exported", "job", id, "path", path)
}

// absorbCache folds one completed lease's cache outcome into the server:
// each surviving worker's resident panels land in the affinity registry
// (positive and negative knowledge — the handshake queried every job panel),
// and the per-link transfer counters accumulate into the per-worker
// lifetime totals. lease maps the master's plan indices to fleet indices,
// mid-job joins included. Closes the lease's cache epoch.
func (s *Server) absorbCache(j *job, m *mmnet.Master, lease []int) {
	stats := m.CacheStats()
	snap := m.ResidentSnapshot()
	queried := j.panels.Digests()
	m.EndJob()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	for k, w := range lease {
		if k >= len(snap) || k >= len(stats) {
			break
		}
		if snap[k] != nil {
			// nil means the link died mid-job — leave the registry to the
			// fleet's OnDown invalidation rather than guess.
			s.registry.Absorb(w, snap[k], queried)
		}
		st := stats[k]
		cum := s.cacheCum[w]
		if cum == nil {
			cum = &cacheCum{}
			s.cacheCum[w] = cum
		}
		cum.hits += st.PanelHits
		cum.misses += st.PanelMisses
		cum.aSent += st.ASentBytes
		cum.aSaved += st.ASavedBytes
		cum.bSent += st.BSentBytes
		cum.bSaved += st.BSavedBytes
		// Mirror into the process metrics with the same values, so /metrics
		// deltas always equal Status()/Session.Stats() deltas.
		mCacheHits.Add(st.PanelHits)
		mCacheMisses.Add(st.PanelMisses)
		mCacheSentA.Add(st.ASentBytes)
		mCacheSavedA.Add(st.ASavedBytes)
		mCacheSentB.Add(st.BSentBytes)
		mCacheSavedB.Add(st.BSavedBytes)
	}
}
