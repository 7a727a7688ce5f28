package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/stats"
	"repro/matmul"
)

// options is one invocation's run protocol.
type options struct {
	seed       int64
	seconds    float64 // measured phase; halved when traced, the ladder gets the rest
	traced     bool
	short      bool   // smoke: one repetition, one set-up, 3 ladder iterations, no regime checks
	resultsDir string // where the traced pass writes its spans
}

func (o options) reps() int {
	if o.short {
		return 1
	}
	return reps
}

// repSample is one repetition's raw measurements.
type repSample struct {
	elapsed   time.Duration
	latencies []float64 // ms, completed jobs only
	lags      []float64 // ms, open loop: how late each job was dispatched
	failed    int
	err       error      // the first failure, for the report
	proc      procSample // runtime deltas over the repetition
}

// runner carries one workload's live state through the protocol's phases.
type runner struct {
	wl   workload
	opt  options
	gen  *generator
	sys  *system
	next atomic.Int64 // next job index to generate
}

// nextJob hands out job indices, one per generated job.
func (r *runner) nextJob() int { return int(r.next.Add(1)) - 1 }

// runWorkload executes the whole protocol for one workload and returns its
// metrics. An error means the run itself broke; failed jobs, wrong Cs,
// leaks and regime violations are reported in the result.
func runWorkload(ctx context.Context, wl workload, opt options) (*workloadResult, error) {
	baseline := runtime.NumGoroutine()
	r := &runner{wl: wl, opt: opt, gen: newGenerator(wl, opt.seed)}
	res, err := r.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	leaked := settle(baseline)
	res.setLayer("process.goroutines_leaked", float64(leaked))
	if leaked > 0 {
		res.flag("%d goroutines leaked", leaked)
	}
	return res, nil
}

// run is the protocol between the goroutine counts: set-up, verification,
// warm-up, measured phase, re-checks, traced pass, tear-down.
func (r *runner) run(ctx context.Context) (*workloadResult, error) {
	wl, opt := r.wl, r.opt
	res := newWorkloadResult(wl)

	// Set-up, several times over: the last one stays up. Cheap set-ups are
	// repeated more often, so a millisecond-scale median is as steady as a
	// 100 ms one.
	var setups []float64
	for began := time.Now(); ; {
		t0 := time.Now()
		sys, err := setUp(ctx, r.gen)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		n := len(setups)
		if opt.short || n >= maxSetupRuns || (n >= setupRuns && time.Since(began) >= setupBudget) {
			r.sys = sys
			break
		}
		sys.tearDown()
	}
	defer r.sys.tearDown()
	// Like every other metric, setup_s is the median of reps samples: each
	// is the median of one of reps consecutive batches of set-ups, so a
	// millisecond set-up repeated hundreds of times reports the spread of its
	// batches, not of single dials.
	batches := make([]float64, 0, reps)
	for k, n := 0, min(reps, len(setups)); k < n; k++ {
		batches = append(batches, stats.Quantile(setups[k*len(setups)/n:(k+1)*len(setups)/n], 0.5))
	}
	res.setEndToEnd("setup_s", batches)

	oracle, err := matmul.Open(ctx, matmul.WithPlatform(fleetSpecs...))
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	check := func(n int) {
		for i := 0; i < n; i++ {
			res.Attempted++
			if err := r.sys.checkJob(ctx, oracle, r.sys.sets[0], r.nextJob()); err != nil {
				res.Failed++
				res.Incorrect++
				res.flag("verification: %v", err)
			}
		}
	}
	nVerify := verifyJobs
	if opt.short {
		nVerify = 1
	}
	check(nVerify)

	seconds, warm := opt.seconds, warmup
	if opt.traced {
		seconds /= 2
	}
	if opt.short {
		warm = 300 * time.Millisecond
	}
	repLen := time.Duration(seconds / float64(opt.reps()) * float64(time.Second))

	var samples []repSample
	var delta counters
	if wl.open() {
		samples, delta, err = r.openLoop(ctx, warm, repLen)
		if err != nil {
			return nil, err
		}
	} else {
		r.closedRep(ctx, warm)
		before := scrape()
		for i := 0; i < opt.reps(); i++ {
			samples = append(samples, r.closedRep(ctx, repLen))
		}
		delta = scrape().sub(before)
	}
	check(opt.reps()) // one bitwise re-check per repetition, after the clock stopped
	r.record(res, samples, delta)

	if opt.traced {
		if err := r.tracedPass(ctx, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// closedRep runs the workload's closed loop for d: every client submits,
// waits, and submits again until d has elapsed, finishing the job in flight.
func (r *runner) closedRep(ctx context.Context, d time.Duration) repSample {
	var s repSample
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := sampleProc()
	start := time.Now()
	for k := 0; k < r.wl.clients; k++ {
		wg.Add(1)
		go func(sess *matmul.Session, set *opSet) {
			defer wg.Done()
			var lat []float64
			for time.Since(start) < d {
				job := r.nextJob()
				r.gen.freshen(set, job)
				t0 := time.Now()
				if err := r.sys.runJob(ctx, sess, set, job); err != nil {
					// A closed loop that fails once would only spin; the
					// failure already fails the command, so this client stops.
					mu.Lock()
					s.failed++
					s.err = err
					mu.Unlock()
					break
				}
				lat = append(lat, ms(time.Since(t0)))
			}
			mu.Lock()
			s.latencies = append(s.latencies, lat...)
			mu.Unlock()
		}(r.sys.sessions[k], r.sys.sets[k])
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	s.proc = sampleProc().sub(before)
	return s
}

// openLoop replays the seeded arrival schedule — a warm-up window, then one
// window per repetition, back to back — and returns the repetitions'
// samples and the program counters' increase over them. Latency runs from
// each job's due time; a job still unfinished drainTimeout after the last
// arrival is canceled and counts as failed.
func (r *runner) openLoop(ctx context.Context, warm, repLen time.Duration) ([]repSample, counters, error) {
	n := r.opt.reps()
	windows := []time.Duration{warm}
	var total time.Duration = warm
	for i := 0; i < n; i++ {
		windows = append(windows, repLen)
		total += repLen
	}
	due, window, err := r.gen.arrivals(windows)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]load.Job, len(due))
	for i := range jobs {
		jobs[i] = load.Job{At: due[i], Inst: r.wl.inst, Q: r.wl.q}
	}
	free := make(chan *opSet, len(r.sys.sets)) // sized to the sends: every set, once each at a time
	for _, s := range r.sys.sets {
		free <- s
	}
	base := int(r.next.Add(int64(len(jobs)))) - len(jobs)

	samples := make([]repSample, n+1) // index 0 is the warm-up window
	lastDone := make([]time.Duration, n+1)
	var mu sync.Mutex

	// Window boundaries are not quiescent in an open loop, so a sampler
	// reads the runtime state (and, entering the first repetition, the
	// program counters) at each boundary's due time.
	bounds := make([]procSample, n+2)
	var before counters
	jctx, cancel := context.WithTimeout(ctx, total+drainTimeout)
	defer cancel()
	start := time.Now()
	bounds[0] = sampleProc()
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		at := time.Duration(0)
		for k := 0; k < n; k++ {
			at += windows[k]
			select {
			case <-time.After(at - time.Since(start)):
			case <-jctx.Done():
				return
			}
			if k == 0 {
				before = scrape()
			}
			bounds[k+1] = sampleProc()
		}
	}()

	err = load.Replay(jctx, jobs, 1, func(i int, _ load.Job) {
		lag := time.Since(start) - due[i]
		set := <-free
		job := base + i
		r.gen.freshen(set, job)
		err := r.sys.runJob(jctx, r.sys.sessions[0], set, job)
		done := time.Since(start)
		free <- set
		mu.Lock()
		defer mu.Unlock()
		s := &samples[window[i]]
		s.lags = append(s.lags, ms(lag))
		if err != nil {
			s.failed++
			s.err = err
			return
		}
		s.latencies = append(s.latencies, ms(done-due[i]))
		lastDone[window[i]] = max(lastDone[window[i]], done)
	})
	<-samplerDone
	if err != nil {
		return nil, nil, fmt.Errorf("arrival replay: %w", err)
	}
	bounds[n+1] = sampleProc()
	delta := scrape().sub(before)

	at := time.Duration(0)
	for k := 1; k <= n; k++ {
		at += windows[k-1]
		// A repetition lasts from its window's start to the last completion
		// of the jobs due in it: goodput is what was delivered over the time
		// it took to deliver it.
		samples[k].elapsed = lastDone[k] - at
		samples[k].proc = bounds[k+1].sub(bounds[k])
	}
	return samples[1:], delta, nil
}

// record turns the repetitions' samples and the counters' increase into the
// workload's end-to-end and counter-derived per-layer metrics.
func (r *runner) record(res *workloadResult, samples []repSample, d counters) {
	var rate, gflops, p50, p90, allocMB []float64
	var allLags []float64
	var jobs, failed int
	var lastErr error
	var proc procSample
	var elapsed time.Duration
	for _, s := range samples {
		n := len(s.latencies)
		jobs += n
		failed += s.failed
		if s.err != nil {
			lastErr = s.err
		}
		elapsed += s.elapsed
		proc = proc.add(s.proc)
		allLags = append(allLags, s.lags...)
		if n == 0 {
			continue
		}
		perS := float64(n) / s.elapsed.Seconds()
		rate = append(rate, perS)
		gflops = append(gflops, perS*r.wl.flops()/1e9)
		p50 = append(p50, stats.Quantile(s.latencies, 0.5))
		p90 = append(p90, stats.Quantile(s.latencies, 0.9))
		allocMB = append(allocMB, float64(s.proc.totalAlloc)/1e6/float64(n))
	}
	res.Attempted += jobs + failed
	res.Failed += failed
	res.LatencySamples = jobs
	if failed > 0 {
		res.flag("%d of %d measured jobs failed, the last with: %v", failed, jobs+failed, lastErr)
	}
	res.setEndToEnd("jobs_per_s", rate)
	res.setEndToEnd("gflops_delivered", gflops)
	res.setEndToEnd("job_p50_ms", p50)
	res.setEndToEnd("alloc_mb_per_job", allocMB)
	res.setEndToEnd("peak_rss_mb", []float64{peakRSSMB()})

	perJob := func(v float64) float64 {
		if jobs == 0 {
			return 0
		}
		return v / float64(jobs)
	}
	frac := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	res.setLayer("matmul.job_p90_ms", p90...)
	res.setLayer("matmul.failed_frac", frac(float64(res.Failed), float64(res.Attempted-res.Failed)))
	res.setLayer("net.sent_bytes_per_job", perJob(d["mm_net_sent_bytes_total"]))
	res.setLayer("net.recv_bytes_per_job", perJob(d["mm_net_recv_bytes_total"]))
	res.setLayer("net.wire_amplification",
		perJob(d["mm_net_sent_bytes_total"]+d["mm_net_recv_bytes_total"])/float64(r.wl.operandBytes()))
	res.setLayer("cache.hit_frac", frac(d["mm_serve_cache_panel_hits_total"], d["mm_serve_cache_panel_misses_total"]))
	res.setLayer("cache.a_saved_frac", frac(d["mm_serve_cache_a_saved_bytes_total"], d["mm_serve_cache_a_sent_bytes_total"]))
	res.setLayer("cache.b_saved_frac", frac(d["mm_serve_cache_b_saved_bytes_total"], d["mm_serve_cache_b_sent_bytes_total"]))
	res.setLayer("serve.queue_wait_p50_ms", 1e3*d.histQuantile("mm_serve_queue_wait_seconds", 0.5))
	res.setLayer("serve.queue_wait_p90_ms", 1e3*d.histQuantile("mm_serve_queue_wait_seconds", 0.9))
	res.setLayer("engine.sendc_ms_per_job", 1e3*perJob(d["mm_engine_sendc_seconds_sum"]))
	res.setLayer("engine.sendab_ms_per_job", 1e3*perJob(d["mm_engine_sendab_seconds_sum"]))
	res.setLayer("engine.recvc_ms_per_job", 1e3*perJob(d["mm_engine_recvc_seconds_sum"]))
	res.setLayer("engine.chunks_per_job", perJob(d["mm_engine_chunks_total"]))
	res.setLayer("engine.replays", d["mm_engine_chunk_replays_total"])
	res.setLayer("engine.failovers", d["mm_engine_worker_failures_total"])
	res.setLayer("serve.jobs_failed", d["mm_serve_jobs_finished_total|failed"])
	res.setLayer("serve.admission_rejected", d["mm_serve_queue_admission_rejected_total"])
	res.setLayer("process.allocs_per_job", perJob(float64(proc.mallocs)))
	res.setLayer("process.gc_cpu_frac", proc.gcCPUSeconds/(elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))))
	res.setLayer("process.gc_pause_ms_per_s", float64(proc.gcPauseNs)/1e6/elapsed.Seconds())
	lag := 0.0
	if len(allLags) > 0 {
		lag = stats.Quantile(allLags, 0.9)
	}
	res.setLayer("load.lag_p90_ms", lag)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
