package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/steady"
	"repro/internal/trace"
	"repro/matmul"
)

// span is one timed call from the benchmark's own code into a layer.
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the traced pass began
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"` // index of the enclosing span, -1 for a root
	Job     int     `json:"job"`    // ladder iteration the span belongs to
}

// spanLog keeps the traced pass's spans in memory until the pass ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent, job int) int {
	l.spans = append(l.spans, span{Name: name, StartMS: ms(time.Since(l.t0)), Parent: parent, Job: job})
	return len(l.spans) - 1
}

// end closes span i and returns its duration in ms.
func (l *spanLog) end(i int) float64 {
	l.spans[i].EndMS = ms(time.Since(l.t0))
	return l.spans[i].EndMS - l.spans[i].StartMS
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// codecBlocks is how many q×q frames one codec round trip moves.
const codecBlocks = 32

// tracedPass times the public entry point of each layer on the workload's
// job shape, from outside the program, on the now idle system: the kernel,
// the serial baseline, the block codec, panel digests, selection + planning,
// and then the same job and plan on each rung of the ladder — in-process
// engine, loopback master, job-queue server, facade. Every wire rung gets
// freshly stamped operands, so no rung hits on panels an earlier one
// installed. It fills the ladder's per-layer metrics, runs the regime
// self-check and writes the spans.
func (r *runner) tracedPass(ctx context.Context, res *workloadResult) error {
	wl, sys, gen := r.wl, r.sys, r.gen
	in, q := wl.inst, wl.q
	set := sys.sets[0]
	workers := float64(len(fleetSpecs))
	log := &spanLog{t0: time.Now()}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }

	// fresh stamps the set as a new job and returns its A and index.
	fresh := func() (*matrix.BlockMatrix, int) {
		job := r.nextJob()
		gen.freshen(set, job)
		return sys.matrixA(set, job), job
	}

	scratch := set.c.Clone()
	ka, kb, kc := matrix.NewBlock(q), matrix.NewBlock(q), matrix.NewBlock(q)
	copy(ka.Data, set.b.Block(0, 0).Data)
	copy(kb.Data, set.c.Block(0, 0).Data)
	kernelCalls := int(20e6/(2*float64(q*q*q))) + 1
	var wire bytes.Buffer
	enc, dec := &matrix.BlockCodec{}, &matrix.BlockCodec{Pool: &matrix.BlockPool{}}
	frames := make([]*matrix.Block, codecBlocks)
	for i := range frames {
		frames[i] = set.c.Block(i%in.R, (i/in.R)%in.S)
	}
	avail := make([]int, len(fleetSpecs))
	for i := range avail {
		avail[i] = i
	}
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}

	iters, minIters := ladderIters, 5
	if r.opt.short {
		iters, minIters = 3, 3
	}
	budget := time.Duration(r.opt.seconds / 2 * float64(time.Second))
	done := 0
	for it := 0; it < iters && (it < minIters || time.Since(log.t0) < budget); it++ {
		root := log.begin("ladder.iteration", -1, it)

		sp := log.begin("kernel.MulAdd", root, it)
		for i := 0; i < kernelCalls; i++ {
			kernel.MulAdd(kc.Data, ka.Data, kb.Data, q)
		}
		add("kernel.gflops", 2*float64(q*q*q)*float64(kernelCalls)/(log.end(sp)*1e6))
		kc.Zero()

		a, _ := fresh()
		sp = log.begin("matmul.Multiply", root, it)
		if err := matmul.Multiply(scratch, a, set.b); err != nil {
			return err
		}
		add("kernel.serial_job_ms", log.end(sp))

		wire.Reset()
		m0 := mallocs()
		sp = log.begin("matrix.BlockCodec", root, it)
		if err := enc.WriteBlocks(&wire, frames); err != nil {
			return err
		}
		got, err := dec.ReadBlocks(&wire)
		if err != nil {
			return err
		}
		d := log.end(sp)
		add("matrix.codec_allocs_per_block", float64(mallocs()-m0)/codecBlocks)
		add("matrix.codec_mb_s", float64(codecBlocks*8*q*q)/1e6/(d/1e3))
		dec.Pool.PutAll(got)

		sp = log.begin("cache.PanelsForJob", root, it)
		cache.PanelsForJob(a, set.b)
		d = log.end(sp)
		add("cache.digest_ms", d)
		add("cache.digest_mb_s", float64(in.R*in.T+in.T*in.S)*8*float64(q*q)/1e6/(d/1e3))

		m0 = mallocs()
		sp = log.begin("serve.SelectResources", root, it)
		sel, err := serve.SelectResources(fleetSpecs, avail, 0, in, sched.Het{}, nil)
		if err != nil {
			return err
		}
		add("sched.plan_ms", log.end(sp))
		add("sched.plan_allocs", float64(mallocs()-m0))

		sp = log.begin("engine.RunContext", root, it)
		err = engine.RunContext(ctx, engine.Config{Workers: len(sel.Workers), T: in.T, Pipelined: true, Procs: 1},
			sel.Plan, a, set.b, scratch)
		if err != nil {
			return err
		}
		add("engine.job_ms", log.end(sp))

		a, _ = fresh()
		jp := cache.PanelsForJob(a, set.b)
		master, err := sys.fleet.Lease(sel.Workers)
		if err != nil {
			return err
		}
		sp = log.begin("net.Master.RunPipelinedContext", root, it)
		master.BeginJob(jp)
		err = master.RunPipelinedContext(ctx, in.T, sel.Plan, a, set.b, scratch)
		master.EndJob()
		add("net.job_ms", log.end(sp))
		sys.fleet.Return(sel.Workers, master, err != nil)
		if err != nil {
			return err
		}

		a, _ = fresh()
		jp = cache.PanelsForJob(a, set.b)
		sp = log.begin("serve.Server.SubmitPanels+Wait", root, it)
		id, err := sys.srv.SubmitPanels(a, set.b, scratch, jp)
		if err == nil {
			err = sys.srv.Wait(id)
		}
		if err != nil {
			return err
		}
		add("serve.job_ms", log.end(sp))

		_, job := fresh()
		sp = log.begin("matmul.Session.Submit+Wait", root, it)
		if err := sys.runJob(ctx, sys.sessions[0], set, job); err != nil {
			return err
		}
		add("matmul.job_ms", log.end(sp))

		_, job = fresh()
		sp = log.begin("matmul.Session.Submit+Wait+Trace", root, it)
		j, err := sys.sessions[0].Submit(ctx, sys.operandA(set, job), set.b, set.c)
		if err == nil {
			err = j.Wait(ctx)
		}
		if err != nil {
			return err
		}
		tr := j.Trace()
		add("traced.job_ms", log.end(sp))
		if tr == nil {
			return fmt.Errorf("the daemon returned no trace for a finished job")
		}
		compute, transfer := traceFractions(tr)
		add("trace.compute_frac", compute)
		add("trace.transfer_frac", transfer)
		add("trace.idle_frac", 1-compute-transfer)

		log.end(root)
		done++
	}
	res.note("ladder: %d iterations per rung", done)

	for _, name := range []string{
		"kernel.gflops", "kernel.serial_job_ms", "matrix.codec_mb_s", "matrix.codec_allocs_per_block",
		"cache.digest_ms", "cache.digest_mb_s", "sched.plan_ms", "sched.plan_allocs",
		"engine.job_ms", "net.job_ms", "serve.job_ms", "matmul.job_ms",
		"trace.compute_frac", "trace.transfer_frac", "trace.idle_frac",
	} {
		res.setLayer(name, samples[name]...)
	}
	serial, eng := res.layer("kernel.serial_job_ms"), res.layer("engine.job_ms")
	netMS, srvMS, facade := res.layer("net.job_ms"), res.layer("serve.job_ms"), res.layer("matmul.job_ms")
	res.setLayer("kernel.efficiency", res.EndToEnd["gflops_delivered"].Median/(res.layer("kernel.gflops")*workers))
	res.setLayer("engine.parallel_eff", serial/(workers*eng))
	res.setLayer("net.self_ms", netMS-eng)
	res.setLayer("serve.self_ms", srvMS-netMS-res.layer("sched.plan_ms"))
	res.setLayer("proto.self_ms", facade-srvMS-res.layer("cache.digest_ms"))
	res.setLayer("trace.overhead_frac", stats.Quantile(samples["traced.job_ms"], 0.5)/facade-1)
	for _, name := range []string{"net.self_ms", "serve.self_ms", "proto.self_ms"} {
		if v := res.layer(name); v < 0 {
			res.note("%s is negative (%.4g ms): the rung above measured faster than the one below", name, v)
		}
	}

	top, topMS := largestTerm(res)
	res.note("largest ladder term: %s, %.4g of matmul.job_ms = %.4g ms", top, topMS, facade)

	bound, err := steadyBound(wl)
	if err != nil {
		return err
	}
	res.setLayer("steady.bound_ms", bound)
	res.setLayer("steady.bound_ratio", netMS/bound)

	if !r.opt.short {
		regimeCheck(wl, res)
	}
	return log.write(filepath.Join(r.opt.resultsDir, "trace-"+wl.name+".json"))
}

// traceFractions splits a job's master-side timeline, per enrolled worker
// link, into the share spent pushing blocks out (SendC, SendAB) and the
// share spent in RecvC — waiting out the worker's residual compute and
// reading the chunk back, the only compute-side signal master-side spans
// carry. The remainder is idle link time.
func traceFractions(tr *trace.Trace) (compute, transfer float64) {
	an := tr.Analyze()
	if an.Makespan <= 0 || an.EnrolledWorkers == 0 {
		return 0, 0
	}
	for _, t := range tr.Transfers {
		if t.Kind == trace.RecvC {
			compute += t.End - t.Start
		} else {
			transfer += t.End - t.Start
		}
	}
	span := an.Makespan * float64(an.EnrolledWorkers)
	return compute / span, transfer / span
}

// steadyBound is the paper's yardstick in wall time: the steady-state
// makespan lower bound of the workload's product on a platform calibrated,
// as the paper does before each run, by platform.Probe — one q×q block over
// a loopback TCP connection and one block update, in milliseconds — with
// the declared memories.
func steadyBound(wl workload) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	q := wl.q
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		rd, codec := bufio.NewReaderSize(conn, 1<<16), &matrix.BlockCodec{Pool: &matrix.BlockPool{}}
		for {
			b, err := codec.ReadBlock(rd)
			if err != nil {
				echoed <- nil // the prober hung up
				return
			}
			codec.Pool.Put(b)
			if _, err := conn.Write([]byte{1}); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	wr, codec := bufio.NewWriterSize(conn, 1<<16), &matrix.BlockCodec{}
	blk, a, b := matrix.NewBlock(q), matrix.NewBlock(q), matrix.NewBlock(q)
	var ioErr error
	transfer := func() time.Duration {
		t0 := time.Now()
		err := codec.WriteBlock(wr, blk)
		if err == nil {
			err = wr.Flush()
		}
		if err == nil {
			var ack [1]byte
			_, err = conn.Read(ack[:])
		}
		if err != nil && ioErr == nil {
			ioErr = err
		}
		return time.Since(t0)
	}
	update := func() time.Duration {
		t0 := time.Now()
		kernel.MulAdd(blk.Data, a.Data, b.Data, q)
		return time.Since(t0)
	}
	transfer() // first block warms the connection and the codecs
	probed, err := platform.Probe(transfer, update, fleetSpecs[0].M, probeTrials, time.Millisecond)
	conn.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	if err == nil {
		err = ioErr
	}
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	ws := make([]platform.Worker, len(fleetSpecs))
	for i, spec := range fleetSpecs {
		ws[i] = platform.Worker{C: probed.C, W: probed.W, M: spec.M}
	}
	pl, err := platform.New(ws...)
	if err != nil {
		return 0, err
	}
	return steady.MakespanLowerBound(pl, wl.inst.R, wl.inst.S, wl.inst.T), nil
}

// arithmeticTerm names the ladder term every other one is weighed against:
// the serial baseline split evenly over the workers.
const arithmeticTerm = "kernel.serial_job_ms/workers"

// largestTerm returns the ladder term that owns most of the job; which one
// it is tells the regimes apart.
func largestTerm(res *workloadResult) (name string, ms float64) {
	name, ms = arithmeticTerm, res.layer("kernel.serial_job_ms")/float64(len(fleetSpecs))
	for _, term := range []string{"net.self_ms", "serve.self_ms", "proto.self_ms", "cache.digest_ms", "sched.plan_ms"} {
		if v := res.layer(term); v > ms {
			name, ms = term, v
		}
	}
	return name, ms
}

// regimeCheck asserts the workload still stresses what it claims to. The
// thresholds were set from the seed-commit run with wide margins (see the
// README); a violation is a flag, so the command fails with the numbers.
func regimeCheck(wl workload, res *workloadResult) {
	perWorker := res.layer("kernel.serial_job_ms") / float64(len(fleetSpecs))
	facade := res.layer("matmul.job_ms")
	switch wl.name {
	case "control-small":
		if share := perWorker / facade; share >= 0.10 {
			res.flag("regime: arithmetic is %.1f%% of matmul.job_ms, want < 10%%", 100*share)
		}
	case "compute-large":
		if top, v := largestTerm(res); top != arithmeticTerm {
			res.flag("regime: %s = %.4g ms exceeds arithmetic per worker (%.4g ms)", top, v, perWorker)
		}
	case "transfer-thin":
		wireMS := res.layer("net.self_ms") + res.layer("proto.self_ms")
		if serial := res.layer("kernel.serial_job_ms"); wireMS <= serial {
			res.flag("regime: net.self_ms + proto.self_ms = %.4g ms does not exceed kernel.serial_job_ms = %.4g ms", wireMS, serial)
		}
	case "shared-open":
		if hit := res.layer("cache.hit_frac"); hit <= minSharedHitFrac {
			res.flag("regime: cache.hit_frac = %.3f, want > %.2f", hit, minSharedHitFrac)
		}
		if saved := res.layer("cache.a_saved_frac"); saved <= minSharedASavedFrac {
			res.flag("regime: cache.a_saved_frac = %.3f, want > %.2f", saved, minSharedASavedFrac)
		}
		if lag := res.layer("load.lag_p90_ms"); lag >= maxLagP90MS {
			res.flag("regime: load.lag_p90_ms = %.3f, want < %g", lag, maxLagP90MS)
		}
	}
}
