// Command mmserve is the multi-job scheduling service: a long-lived daemon
// that holds a persistent fleet of mmworker sessions open, queues submitted
// products, picks a throughput-best worker subset per job (the paper's
// resource selection, applied per product), and runs the leased jobs
// concurrently — one daemon, many products, no worker restarts in between.
//
// Daemon mode dials the fleet once and listens for clients:
//
//	mmworker -listen 127.0.0.1:9801 &   # ×4 …
//	mmserve -listen 127.0.0.1:9700 \
//	        -workers 127.0.0.1:9801,127.0.0.1:9802,127.0.0.1:9803,127.0.0.1:9804
//
// Client mode streams A, B and C to the daemon and receives the updated C
// (matrices are generated from -seed here; a library client submits real
// data through a matmul.Session on the Remote runtime). SIGINT mid-wait
// sends the protocol's cancel frame, so the daemon dequeues or aborts the
// job instead of running it for a vanished client; SIGINT in daemon mode
// drains the queue and shuts down gracefully.
//
//	mmserve -submit -addr 127.0.0.1:9700 -r 8 -s 24 -t 6 -q 16 -seed 7
//	mmserve -status -addr 127.0.0.1:9700
//
// Resource-selection knobs: -specs gives per-worker c:w:m platform
// descriptions (heterogeneous fleets get heterogeneous selections), -alg
// picks the scheduling algorithm, and -max-workers-per-job caps any one
// lease so concurrent submissions always split the fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	stdnet "net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/coded"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/matmul"
)

type options struct {
	// daemon
	listen     string
	workers    string
	specs      string
	alg        string
	maxPerJob  int
	keepalive  time.Duration
	adaptive   bool
	drift      float64
	cache      bool
	redundancy string
	queue      string
	admission  string
	aging      time.Duration
	quiet      bool
	traceDir   string
	debugAddr  string
	logLevel   string
	logFormat  string
	// client
	submit  bool
	status  bool
	addr    string
	inst    sched.Instance
	q       int
	class   string
	seed    int64
	timeout time.Duration
	verify  bool
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:9700", "daemon: address to serve clients on")
	flag.StringVar(&o.workers, "workers", "", "daemon: comma-separated mmworker addresses (required)")
	flag.StringVar(&o.specs, "specs", "", "daemon: per-worker c:w:m specs, comma separated (default: homogeneous 1:1:60)")
	flag.StringVar(&o.alg, "alg", "Het", "daemon: per-job scheduling algorithm: Hom, HomI, Het, ORROML, OMMOML, ODDOML, BMM")
	flag.IntVar(&o.maxPerJob, "max-workers-per-job", 0, "daemon: cap any one job's lease (0: split the idle fleet across queued jobs)")
	flag.DurationVar(&o.keepalive, "keepalive", 15*time.Second, "daemon: idle fleet connection ping interval (negative: never)")
	flag.BoolVar(&o.adaptive, "adaptive", true, "daemon: elastic runtime — measured-throughput selection, mid-job re-planning, post-startup worker joins attached to running jobs")
	flag.Float64Var(&o.drift, "drift", 0, "daemon: relative estimate drift that re-plans a running lease (0: default 0.5; negative: off)")
	flag.BoolVar(&o.cache, "cache", true, "daemon: operand-affinity scheduling over the workers' panel caches — route jobs toward workers already holding the operand bits")
	flag.StringVar(&o.redundancy, "redundancy", "", "daemon: proactive straggler mitigation on every lease: off, replicated[:r] or coded[:r] (:0 lets the measured estimates suggest r)")
	flag.StringVar(&o.queue, "queue", "fifo", "daemon: queue policy: fifo, sjf (least work first, aging-bounded) or priority (SLO class order)")
	flag.StringVar(&o.admission, "admission", "", "daemon: token-bucket admission control as rate[:burst] jobs/s per SLO class (empty: unbounded queue)")
	flag.DurationVar(&o.aging, "aging", 0, "daemon: starvation bound for sjf/priority — a job queued this long is dispatched next regardless (0: 15s default)")
	flag.BoolVar(&o.quiet, "quiet", false, "daemon: suppress job and fleet logging")
	flag.StringVar(&o.traceDir, "trace-dir", "", "daemon: write one Chrome trace-event JSON file per completed job into this directory (Perfetto-loadable; empty: off)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "daemon: opt-in HTTP debug address serving /metrics, /healthz and /debug/pprof (empty: off)")
	flag.StringVar(&o.logLevel, "log-level", "info", "log verbosity: debug, info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "text", "log format: text or json")
	version := flag.Bool("version", false, "print build version and exit")
	flag.BoolVar(&o.submit, "submit", false, "client: submit one product and wait for C")
	flag.BoolVar(&o.status, "status", false, "client: print the daemon's fleet and job snapshot")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9700", "client: daemon address")
	flag.IntVar(&o.inst.R, "r", 8, "client: rows of C in blocks")
	flag.IntVar(&o.inst.S, "s", 24, "client: columns of C in blocks")
	flag.IntVar(&o.inst.T, "t", 6, "client: inner dimension in blocks")
	flag.IntVar(&o.q, "q", 16, "client: block edge (elements)")
	flag.StringVar(&o.class, "class", "", "client: job SLO class: interactive, standard or batch (empty: standard)")
	flag.Int64Var(&o.seed, "seed", 1, "client: random seed for matrix data")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "client: bound on the whole submission exchange")
	flag.BoolVar(&o.verify, "verify", true, "client: check the returned C against a local reference product")
	flag.Parse()

	if *version {
		fmt.Println("mmserve", obs.Version())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case o.submit:
		err = runSubmit(ctx, o)
	case o.status:
		err = runStatus(ctx, o)
	default:
		err = runDaemon(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmserve:", err)
		os.Exit(1)
	}
}

// runDaemon brings up the fleet and serves clients until the process dies
// or ctx is cancelled (SIGINT), which closes the listener, fails the queued
// jobs, waits for running leases, and returns the worker sessions to their
// daemons.
func runDaemon(ctx context.Context, o options) error {
	ln, err := stdnet.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	return daemon(ctx, ln, o)
}

// daemon serves clients on an existing listener (tests hand in an ephemeral
// port) until the listener closes or ctx is cancelled.
func daemon(ctx context.Context, ln stdnet.Listener, o options) error {
	addrs := splitList(o.workers)
	if len(addrs) == 0 {
		return fmt.Errorf("daemon mode needs -workers (or use -submit / -status for client mode)")
	}
	specs, err := parseSpecs(o.specs, len(addrs))
	if err != nil {
		return err
	}
	scheduler, err := sched.Lookup(o.alg)
	if err != nil {
		return err
	}
	redMode, redR, err := coded.ParseSpec(o.redundancy)
	if err != nil {
		return err
	}
	// Validate the queue policy here so a typo fails startup loudly instead
	// of silently serving FIFO.
	queuePolicy, err := serve.ParseQueuePolicy(o.queue)
	if err != nil {
		return err
	}
	admRate, admBurst, err := parseAdmission(o.admission)
	if err != nil {
		return err
	}
	log, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	if o.quiet {
		log = obs.NopLogger()
	}
	slog.SetDefault(log)
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return fmt.Errorf("-trace-dir: %w", err)
		}
	}

	fleet, err := serve.NewFleet(addrs, specs, serve.FleetOptions{Keepalive: o.keepalive, Logger: log})
	if err != nil {
		return err
	}
	defer fleet.Close()
	srv := serve.NewServer(fleet, serve.Config{
		Scheduler: scheduler, MaxWorkersPerJob: o.maxPerJob,
		Adaptive: o.adaptive, DriftThreshold: o.drift,
		NoCache: !o.cache, Logger: log, TraceDir: o.traceDir,
		Redundancy: string(redMode), RedundancyFactor: redR,
		QueuePolicy: queuePolicy, AgingBound: o.aging,
		AdmissionRate: admRate, AdmissionBurst: admBurst,
	})
	defer srv.Close()

	if o.debugAddr != "" {
		bound, stopDebug, err := obs.ServeDebug(o.debugAddr, func() obs.Health {
			// Healthy while at least one fleet worker is reachable: a daemon
			// with every worker down accepts jobs it cannot run.
			st := srv.Status()
			up := 0
			for _, w := range st.Workers {
				if w.State != "down" {
					up++
				}
			}
			return obs.Health{OK: up > 0, Payload: map[string]any{
				"component": "mmserve", "version": obs.Version(), "kernel": st.Kernel,
				"workers": len(st.Workers), "workers_up": up,
				"queued": st.Queued, "running": st.Running,
			}}
		})
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer stopDebug()
		log.Info("debug server up", "addr", bound)
	}

	// SIGINT: stop accepting clients; the deferred Close calls fail the
	// queued jobs, ride out the running leases, and release the fleet.
	unhook := context.AfterFunc(ctx, func() { ln.Close() })
	defer unhook()

	log.Info("daemon up", "addr", ln.Addr().String(), "workers", len(addrs),
		"algorithm", scheduler.Name(), "queue", queuePolicy,
		"kernel", kernel.Name(), "version", obs.Version())
	err = srv.ListenAndServe(ln)
	if ctx.Err() != nil {
		log.Info("signal received; draining jobs and releasing the fleet")
		return nil
	}
	return err
}

// runSubmit generates a seeded product, submits it through a matmul Session
// on the Remote runtime, and verifies the answer. ctx cancellation (SIGINT)
// cancels the daemon-side job, not just the local wait.
func runSubmit(ctx context.Context, o options) error {
	if err := o.inst.Validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	a := matrix.NewBlockMatrix(o.inst.R, o.inst.T, o.q)
	b := matrix.NewBlockMatrix(o.inst.T, o.inst.S, o.q)
	c := matrix.NewBlockMatrix(o.inst.R, o.inst.S, o.q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	var want *matrix.BlockMatrix
	if o.verify {
		want = c.Clone()
		if err := matrix.Multiply(want, a, b); err != nil {
			return err
		}
	}

	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	sess, err := matmul.Open(ctx, matmul.WithRuntime(matmul.Remote(o.addr)))
	if err != nil {
		return err
	}
	defer sess.Close()

	var subOpts []matmul.SubmitOption
	if o.class != "" {
		subOpts = append(subOpts, matmul.WithClass(o.class))
	}
	start := time.Now()
	job, err := sess.Submit(ctx, a, b, c, subOpts...)
	if err != nil {
		return err
	}
	if err := job.Wait(context.Background()); err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("job canceled (daemon notified): %w", err)
		}
		return err
	}
	fmt.Printf("job %d: C(%dx%d blocks, q=%d) returned in %v\n",
		job.Status().RemoteID, c.Rows, c.Cols, c.Q, time.Since(start))
	if o.verify {
		diff := c.MaxAbsDiff(want)
		fmt.Printf("max |C - reference| = %.3g\n", diff)
		if diff > 1e-9 {
			return fmt.Errorf("verification FAILED (deviation %g)", diff)
		}
		fmt.Println("verification OK: C = C₀ + A·B")
	}
	return nil
}

// runStatus prints the daemon's snapshot. SIGINT (via ctx) interrupts a
// wedged daemon's status exchange, like every other client path.
func runStatus(ctx context.Context, o options) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	st, err := serve.FetchStatsContext(ctx, o.addr)
	if err != nil {
		return err
	}
	mode := "static"
	if st.Adaptive {
		mode = "adaptive"
	}
	if st.Redundancy != "" {
		mode += ", " + st.Redundancy + " redundancy"
	}
	if st.QueuePolicy != "" && st.QueuePolicy != serve.PolicyFIFO {
		mode += ", " + st.QueuePolicy + " queue"
	}
	fmt.Printf("jobs: %d queued, %d running, %d done, %d failed, %d canceled (%s scheduling)\n",
		st.Queued, st.Running, st.Done, st.Failed, st.Canceled, mode)
	if len(st.QueuedByClass) > 0 {
		fmt.Printf("queued by class:%s\n", fmtClassCounts(st.QueuedByClass))
	}
	if len(st.AdmissionRejected) > 0 {
		var total int64
		for _, n := range st.AdmissionRejected {
			total += n
		}
		if total > 0 {
			counts := make(map[string]int, len(st.AdmissionRejected))
			for k, v := range st.AdmissionRejected {
				counts[k] = int(v)
			}
			fmt.Printf("admission rejected:%s\n", fmtClassCounts(counts))
		}
	}
	if st.Kernel != "" {
		fmt.Printf("daemon kernel: %s\n", st.Kernel)
	}
	// Sort by fleet ID so repeated -status invocations diff cleanly whatever
	// order the daemon serialized the rows in.
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for _, w := range st.Workers {
		line := fmt.Sprintf("worker %d %-24s %-8s spec c=%g w=%g m=%d jobs=%d", w.ID, w.Addr+" ("+w.Name+")", w.State, w.Spec.C, w.Spec.W, w.Spec.M, w.Jobs)
		if w.Kernel != "" {
			line += " kernel=" + w.Kernel
		}
		if w.Samples > 0 {
			// Live measured estimates: what the adaptive scheduler actually
			// plans with, as opposed to the declared spec to its left.
			line += fmt.Sprintf(" est c=%.3gms/blk w=%.3gms/upd (%d samples)", w.EstC, w.EstW, w.Samples)
		}
		if w.CacheHits+w.CacheMisses > 0 || w.ResidentPanels > 0 {
			// Panel-cache effectiveness: what operand affinity bought on this
			// worker, and what the daemon believes is resident right now.
			line += fmt.Sprintf(" cache hit=%d miss=%d saved=%s resident=%d/%s",
				w.CacheHits, w.CacheMisses, fmtBytes(w.SavedBytes), w.ResidentPanels, fmtBytes(w.ResidentBytes))
		}
		fmt.Println(line)
	}
	if ct := st.Cache; ct != nil {
		fmt.Printf("panel cache: hits=%d misses=%d A saved=%s sent=%s, B saved=%s sent=%s, resident=%s\n",
			ct.PanelHits, ct.PanelMisses,
			fmtBytes(ct.ASavedBytes), fmtBytes(ct.ASentBytes),
			fmtBytes(ct.BSavedBytes), fmtBytes(ct.BSentBytes), fmtBytes(ct.ResidentBytes))
	}
	for _, j := range st.Jobs {
		line := fmt.Sprintf("job %d: %s C(%dx%d)·t=%d q=%d", j.ID, j.State, j.Instance.R, j.Instance.S, j.Instance.T, j.Q)
		if j.Class != "" && j.Class != "standard" {
			line += " class=" + j.Class
		}
		if j.Algorithm != "" {
			line += fmt.Sprintf(" alg=%s workers=%v", j.Algorithm, j.Workers)
		}
		if j.Replans > 0 {
			line += fmt.Sprintf(" replans=%d", j.Replans)
		}
		if r := j.Redundancy; r != nil {
			// The k-of-n gate's outcome for this lease: what the redundant
			// units bought (duplicate wins, decodes, absorbed stragglers) and
			// what they cost (wasted duplicate bytes).
			line += fmt.Sprintf(" red=%s units=%d", r.Mode, r.Units)
			if r.DuplicateWins > 0 {
				line += fmt.Sprintf(" dupwins=%d wasted=%s", r.DuplicateWins, fmtBytes(r.WastedBytes))
			}
			if r.Decodes > 0 {
				line += fmt.Sprintf(" decodes=%d", r.Decodes)
			}
			if r.Absorbed > 0 {
				line += fmt.Sprintf(" absorbed=%d", r.Absorbed)
			}
		}
		if j.ElapsedMS > 0 {
			line += fmt.Sprintf(" elapsed=%.1fms", j.ElapsedMS)
		}
		if j.Error != "" {
			line += " error=" + j.Error
		}
		fmt.Println(line)
	}
	return nil
}

// fmtClassCounts renders per-class counts in fixed priority order so
// repeated -status invocations diff cleanly.
func fmtClassCounts(m map[string]int) string {
	var out string
	for _, class := range []string{"interactive", "standard", "batch"} {
		if n, ok := m[class]; ok {
			out += fmt.Sprintf(" %s=%d", class, n)
		}
	}
	return out
}

// parseAdmission parses -admission "rate[:burst]" (jobs/second per SLO
// class, bucket capacity). Empty means unbounded.
func parseAdmission(s string) (rate float64, burst int, err error) {
	if s = strings.TrimSpace(s); s == "" {
		return 0, 0, nil
	}
	spec := s
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		if _, err := fmt.Sscanf(spec[i+1:], "%d", &burst); err != nil || burst <= 0 {
			return 0, 0, fmt.Errorf("-admission %q: burst must be a positive integer", s)
		}
		spec = spec[:i]
	}
	if _, err := fmt.Sscanf(spec, "%g", &rate); err != nil || rate <= 0 {
		return 0, 0, fmt.Errorf("-admission %q: rate must be a positive number of jobs/s", s)
	}
	return rate, burst, nil
}

// fmtBytes renders a byte count with a binary-unit suffix for status lines.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseSpecs turns "c:w:m,c:w:m,…" into per-worker platform descriptions,
// defaulting to a homogeneous fleet when empty.
func parseSpecs(s string, n int) ([]platform.Worker, error) {
	if s == "" {
		return platform.Homogeneous(n, 1, 1, 60).Workers, nil
	}
	ws, err := platform.ParseWorkers(s)
	if err != nil {
		return nil, err
	}
	if len(ws) != n {
		return nil, fmt.Errorf("%d specs for %d workers", len(ws), n)
	}
	return ws, nil
}
