// Command mmrun runs one product through the public matmul facade: a
// Session is opened on the in-process runtime (goroutine workers exchanging
// actual matrix blocks) or, with -distributed, on remote mmworker processes
// over TCP; the submitted job schedules the product with the chosen
// algorithm, executes the plan for real, and the result is verified against
// a reference multiplication.
//
// By default the plan runs on the concurrent core: one dispatch goroutine
// per worker, so transfers to distinct workers and every worker's compute
// overlap. -pipelined=false falls back to the strictly sequential op loop
// (in-process only); the computed C is bitwise-identical either way. With -pace (in-process
// only) transfers cost simulated wall-clock time, and -oneport keeps those
// paced transfer slots serialized as the paper's one-port model demands.
//
// SIGINT cancels gracefully: the in-flight job is aborted (mid-transfer
// included), workers are drained, and mmrun exits nonzero.
//
// Usage:
//
//	mmrun -alg Het -r 8 -s 24 -t 6 -q 16 -procs 4
//	mmrun -alg BMM -r 8 -s 24 -t 6 -q 16 -pace 50us -oneport
//	mmrun -alg Het -distributed 127.0.0.1:9801,127.0.0.1:9802
//
// -procs applies to the in-process goroutine workers; remote workers pick
// their own parallelism via mmworker -procs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/coded"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/matmul"
)

// options collects one mmrun invocation's knobs.
type options struct {
	alg         string
	inst        sched.Instance
	q           int
	seed        int64
	pace        time.Duration
	distributed string
	pipelined   bool
	onePort     bool
	procs       int
	redundancy  string
	debugAddr   string
}

func main() {
	var o options
	flag.StringVar(&o.alg, "alg", "Het", "algorithm: Hom, HomI, Het, ORROML, OMMOML, ODDOML, BMM")
	flag.IntVar(&o.inst.R, "r", 8, "rows of C in blocks")
	flag.IntVar(&o.inst.S, "s", 24, "columns of C in blocks")
	flag.IntVar(&o.inst.T, "t", 6, "inner dimension in blocks")
	flag.IntVar(&o.q, "q", 16, "block edge (elements)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed for matrix data")
	flag.DurationVar(&o.pace, "pace", 0, "per (block × unit link cost) transfer pacing, e.g. 50us")
	flag.StringVar(&o.distributed, "distributed", "", "comma-separated mmworker addresses; drive remote workers over TCP instead of in-process goroutines")
	flag.BoolVar(&o.pipelined, "pipelined", true, "use the concurrent dispatch core (false: strictly sequential op loop, in-process only)")
	flag.BoolVar(&o.onePort, "oneport", false, "serialize transfer slots across workers (one-port master); meaningful with -pace or -distributed under -pipelined")
	flag.IntVar(&o.procs, "procs", 0, "goroutines per in-process worker's block updates (≤1: sequential); remote workers set their own via mmworker -procs")
	flag.StringVar(&o.redundancy, "redundancy", "", "proactive straggler mitigation: off, replicated[:r] or coded[:r] — r redundant units per wave raced through the k-of-n gate")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "opt-in HTTP debug address serving /metrics, /healthz and /debug/pprof (empty: off)")
	version := flag.Bool("version", false, "print build version and exit")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()

	if *version {
		fmt.Println("mmrun", obs.Version())
		return
	}
	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmrun:", err)
		os.Exit(2)
	}
	slog.SetDefault(log)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "mmrun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.debugAddr != "" {
		bound, stopDebug, err := obs.ServeDebug(o.debugAddr, func() obs.Health {
			return obs.Health{OK: true, Payload: map[string]any{
				"component": "mmrun", "version": obs.Version(), "kernel": kernel.Name(),
			}}
		})
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer stopDebug()
		slog.Info("debug server up", "addr", bound)
	}
	opts := []matmul.Option{
		matmul.WithAlgorithm(o.alg),
		matmul.WithPipelined(o.pipelined),
		matmul.WithOnePort(o.onePort),
	}
	if o.redundancy != "" {
		mode, r, err := coded.ParseSpec(o.redundancy)
		if err != nil {
			return err
		}
		if mode != coded.ModeOff {
			opts = append(opts, matmul.WithRedundancy(string(mode), r))
		}
	}
	runtime := "in-process"
	if o.distributed != "" {
		if o.pace != 0 {
			return fmt.Errorf("-pace applies to the in-process engine only; remote links are real, drop it with -distributed")
		}
		if o.procs != 0 {
			return fmt.Errorf("-procs applies to the in-process engine only; remote workers set their own parallelism via mmworker -procs")
		}
		if !o.pipelined {
			return fmt.Errorf("-pipelined=false applies to the in-process engine only; distributed jobs run on the concurrent core")
		}
		var addrs []string
		for _, a := range strings.Split(o.distributed, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fmt.Errorf("-distributed given but no worker addresses parsed")
		}
		opts = append(opts, matmul.WithRuntime(matmul.Distributed(addrs...)))
		runtime = fmt.Sprintf("distributed over %d workers", len(addrs))
	} else {
		if o.pace != 0 {
			opts = append(opts, matmul.WithPacing(o.pace))
		}
		if o.procs != 0 {
			opts = append(opts, matmul.WithProcs(o.procs))
		}
	}

	sess, err := matmul.Open(ctx, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()

	rng := rand.New(rand.NewSource(o.seed))
	a := matrix.NewBlockMatrix(o.inst.R, o.inst.T, o.q)
	b := matrix.NewBlockMatrix(o.inst.T, o.inst.S, o.q)
	c := matrix.NewBlockMatrix(o.inst.R, o.inst.S, o.q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		return err
	}

	executor := "sequential"
	if o.pipelined {
		executor = "pipelined"
	}
	fmt.Printf("mmrun %s: running %s via matmul.Session (%s, %s executor, kernel %s)\n",
		obs.Version(), o.alg, runtime, executor, kernel.Name())
	start := time.Now()
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		return err
	}
	if err := job.Wait(context.Background()); err != nil {
		return err // SIGINT surfaces here as a context.Canceled-wrapping error
	}
	elapsed := time.Since(start)

	diff := c.MaxAbsDiff(want)
	fmt.Printf("executed for real (%s) in %v; max |C - reference| = %.3g\n", executor, elapsed, diff)
	if diff > 1e-9 {
		return fmt.Errorf("verification FAILED (deviation %g)", diff)
	}
	fmt.Println("verification OK: C = C₀ + A·B")
	return nil
}
