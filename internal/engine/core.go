package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/matrix"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options selects the policies of the concurrent core; see Dispatch. The
// zero value is the static run: the plan's own assignment, failover by
// round-robin replay, one copy of every chunk. When both fields are set the
// redundancy gate runs and Elastic is ignored (the caller's tracker only
// priced the redundant placement).
type Options struct {
	Elastic    *Elastic
	Redundancy *Redundancy
}

// Elastic is the adaptive reassignment policy: live cost estimates, mid-job
// fleet membership, and re-planning of un-dispatched chunks. See Dispatch.
type Elastic struct {
	// Tracker receives every observed transfer and compute and prices jobs
	// for re-planning. Required; use adapt.NewTracker seeded from the
	// declared platform (or a Tracker.View for lease-local indices).
	Tracker adapt.Estimator
	// Join delivers the indices of workers that become addressable mid-run
	// (the backend must already route to them — e.g. after Master.AddWorker).
	// Each join triggers a re-plan of the un-dispatched jobs onto the grown
	// fleet. Indices already alive, out of the backend's range, or arriving
	// after the run completes are ignored. Optional.
	Join <-chan int
	// DriftThreshold is the relative estimate movement (since the estimates
	// the current assignment was planned with) that triggers a re-plan.
	// 0 selects DefaultDriftThreshold; negative disables drift re-planning.
	DriftThreshold float64
	// OnReplan, when non-nil, observes every re-plan: reason is "join",
	// "depart" or "drift", and pending is the number of un-dispatched jobs
	// that were redistributed. Called with executor-internal locks held — it
	// must be fast, must not block, and must not call back into the executor.
	OnReplan func(reason string, pending int)
}

// DefaultDriftThreshold re-plans when some worker's estimated cost moved 50%
// from the value the current assignment was computed with — far past EWMA
// sample noise, well within "a co-tenant started competing for the node".
const DefaultDriftThreshold = 0.5

// unit is one dispatchable piece of work: a plan job's own (primary) copy,
// an extra copy of it, or a parity unit.
type unit struct {
	job    int            // plan job index; -1 for a parity unit
	parity *RedundantUnit // non-nil: a pre-encoded parity payload
	copy   bool           // replica or speculative copy: counts against the job's copy cap
	spec   bool           // copy claimed by an idle worker rather than planned
}

// flight is the unit a worker has in flight.
type flight struct {
	u        unit
	t0       time.Time
	canceled bool // the gate gave up on it (its outcome can no longer matter)
}

type workerState uint8

const (
	absent  workerState = iota // addressable index that has not joined the run
	alive                      // has a dispatch goroutine
	retired                    // failed; a stale join must not resurrect it
)

// core is the shared state of one concurrent run: one mutex and condition
// variable over per-worker unit queues, the membership and in-flight sets,
// the pending count and the first error. The three policies are data on it:
// el (reassign by live estimates instead of round-robin, also on join and
// drift), gate (k-of-n commit, and speculation when a worker is idle).
type core struct {
	ctx     context.Context
	be      Backend
	a, b, c *matrix.BlockMatrix
	jobs    []sim.PlanJob
	rec     *trace.Recorder

	el        *Elastic
	items     []adapt.Item // per-job cost primitives the estimator prices (elastic only)
	threshold float64
	gate      *kofnGate
	raw       RawSender // non-nil: parity units bypass digest addressing

	wg   sync.WaitGroup // dispatch goroutines
	mu   sync.Mutex
	cond *sync.Cond
	// Indexed by worker; grown when a worker joins.
	state    []workerState
	queues   [][]unit  // un-dispatched units, in dispatch order
	inflight []*flight // nil while the worker is between units
	nAlive   int
	pending  int // plan jobs whose result has not landed in C
	err      error
	// sinceReplan counts completions since the last re-plan; drift re-plans
	// wait for at least one per alive worker, so a slowly converging EWMA
	// cannot re-plan after every single job (no thrash).
	sinceReplan int
}

// Dispatch replays plan against real matrices through be concurrently:
// C ← C + A·B restricted to the chunks the plan covers, exactly as
// ExecuteContext, but demand-driven — one dispatch goroutine per worker pulls
// units off that worker's queue, so a blocking RecvC on one worker never
// stalls sends to the others (the paper's one-port model only ever serializes
// transfers, never transfer against compute; pass a one-port gate to the
// backend to keep paced transfer slots serialized). Which worker runs which
// chunk when is policy, chosen by opts:
//
//   - Reassignment. A worker that fails with ErrWorkerDown is retired and its
//     unfinished share (the unit in flight included) handed to the survivors:
//     round-robin by default; with opts.Elastic by greedy earliest-finish over
//     the live estimates (adapt.Balance) of every un-dispatched job — the
//     same re-plan a mid-run join or estimate drift past the threshold fires,
//     a departure being just the most extreme estimate update.
//   - Idleness. A worker whose queue is empty parks until a reassignment
//     hands it work; with opts.Redundancy it instead claims a speculative
//     copy of whatever is still pending, under the copy cap.
//   - Commit. By default each chunk has one copy, chunks are pairwise
//     disjoint (checked up front; any correct plan covers C at most once), and
//     results are written straight into C with no lock. With opts.Redundancy
//     the planned replicas and parity units race the plan's own jobs through
//     the k-of-n gate: the first result of a job wins, laggards are
//     wire-cancelled when the backend supports it, and a parity decode stands
//     in for a missing member strictly as a last resort.
//
// Only which worker runs a job ever changes: a job's chunk geometry and
// installment sequence are fixed by the plan and every copy replays the
// master's untouched snapshot of its chunk, so C is bitwise-identical to
// ExecuteContext's under every failover, join, re-plan and duplicate — the
// one exception being a parity decode, which substitutes reconstructed
// values within solver tolerance.
//
// Cancelling ctx stops every dispatch goroutine at its next unit boundary
// (and, through a context-aware backend, interrupts transfers in flight) and
// fails the run with an error wrapping ctx.Err(). The run otherwise fails only
// on a non-failover backend error or when work remains and every worker is
// gone.
func Dispatch(ctx context.Context, t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, be Backend, opts Options) error {
	jobs, _, err := validatePlan(t, plan, a, b, c, be)
	if err != nil {
		return err
	}
	if err := checkChunksDisjoint(jobs, c.Rows, c.Cols); err != nil {
		return err
	}
	nw := be.Workers()
	x := &core{ctx: ctx, be: be, a: a, b: b, c: c, jobs: jobs, pending: len(jobs), rec: trace.FromContext(ctx)}
	x.cond = sync.NewCond(&x.mu)
	switch red, el := opts.Redundancy, opts.Elastic; {
	case red != nil:
		if err := validateRedundancy(red, jobs, nw, t, c); err != nil {
			return err
		}
		x.gate = newGate(red, jobs, c, be)
		x.raw, _ = be.(RawSender)
	case el != nil:
		if el.Tracker == nil {
			return fmt.Errorf("engine: the elastic policy needs an estimate tracker")
		}
		x.el, x.threshold = el, el.DriftThreshold
		if x.threshold == 0 {
			x.threshold = DefaultDriftThreshold
		}
		// Blocks moved over the job's whole life (chunk down, installments,
		// chunk back) and block updates performed.
		x.items = make([]adapt.Item, len(jobs))
		for ji, j := range jobs {
			it := adapt.Item{ID: ji, Blocks: 2 * j.Chunk.Blocks()}
			for _, p := range j.Panels {
				it.Blocks += (p[1] - p[0]) * (j.Chunk.H + j.Chunk.W)
				it.Updates += int64(p[1]-p[0]) * int64(j.Chunk.H) * int64(j.Chunk.W)
			}
			x.items[ji] = it
		}
	}
	if ctx.Err() != nil {
		// Fail an already-dead context before any dispatch: no worker is left
		// holding a half-delivered job by a run that never had a chance.
		return abortErr(ctx, nil)
	}
	materialize(a, b, jobs)

	// The initial assignment is the plan's own: each worker's jobs in plan
	// order, then its planned redundant units.
	x.grow(nw - 1)
	for w := 0; w < nw; w++ {
		x.state[w] = alive
	}
	x.nAlive = nw
	for ji, j := range jobs {
		x.queues[j.Worker] = append(x.queues[j.Worker], unit{job: ji})
	}
	if x.gate != nil {
		for i := range x.gate.red.Units {
			ru := &x.gate.red.Units[i]
			u := unit{job: ru.Job, copy: true}
			if ru.Job < 0 {
				u = unit{job: -1, parity: ru}
			}
			x.queues[ru.Worker] = append(x.queues[ru.Worker], u)
		}
	}
	if x.el != nil {
		// Rebased so drift measures movement since this assignment was chosen.
		x.el.Tracker.Ensure(nw - 1)
		x.el.Tracker.Rebase()
	}

	// Cancellation trips the same first-error state a fatal backend error
	// does, so every dispatch goroutine stops at its next unit boundary.
	stopWatch := context.AfterFunc(ctx, func() {
		x.mu.Lock()
		x.fail(ctx.Err())
		x.mu.Unlock()
	})
	defer stopWatch()

	x.wg.Add(nw)
	for w := 0; w < nw; w++ {
		go x.work(w)
	}
	done := make(chan struct{})
	var joins sync.WaitGroup
	if x.el != nil && x.el.Join != nil {
		joins.Add(1)
		go func() {
			defer joins.Done()
			x.acceptJoins(done)
		}()
	}

	x.mu.Lock()
	for x.pending > 0 && x.err == nil {
		x.cond.Wait()
	}
	x.mu.Unlock()
	close(done)
	joins.Wait() // no join can start a goroutine past this point
	x.wg.Wait()
	if x.gate != nil {
		x.gate.dropParities()
	}
	// Read the error only now: a laggard that failed fatally after the last
	// commit leaves its link tainted, and the caller must hear about it.
	x.mu.Lock()
	defer x.mu.Unlock()
	return abortErr(ctx, x.err)
}

// fail records the run's first error and wakes everyone. Caller holds x.mu.
func (x *core) fail(err error) {
	if x.err == nil {
		x.err = err
	}
	x.cond.Broadcast()
}

// grow extends the per-worker tables to cover index w. Caller holds x.mu
// (or is still single-threaded).
func (x *core) grow(w int) {
	for len(x.state) <= w {
		x.state = append(x.state, absent)
		x.queues = append(x.queues, nil)
		x.inflight = append(x.inflight, nil)
	}
}

// acceptJoins folds workers arriving on Elastic.Join into the run until it
// settles. Membership changes happen under x.mu like everything else, so a
// join racing the final completion is either folded in (and finds nothing
// pending) or ignored.
func (x *core) acceptJoins(done <-chan struct{}) {
	for {
		select {
		case w, ok := <-x.el.Join:
			if !ok {
				return
			}
			if w < 0 || w >= x.be.Workers() {
				continue
			}
			x.el.Tracker.Ensure(w)
			x.mu.Lock()
			x.grow(w)
			if x.state[w] == absent && x.pending > 0 && x.err == nil {
				x.state[w] = alive
				x.nAlive++
				x.reassign("join", nil)
				x.wg.Add(1)
				go x.work(w)
			}
			x.mu.Unlock()
		case <-done:
			return
		}
	}
}

// work is worker w's dispatch loop: take the next unit, run it, settle its
// outcome — until the run is over or w is retired.
func (x *core) work(w int) {
	defer x.wg.Done()
	st := newStager(x.be)
	st.rec = x.rec
	for {
		u, cBlocks, ok := x.next(w, st)
		if !ok {
			return
		}
		blocks, err := x.runUnit(w, u, cBlocks, st)
		if err == nil && x.gate == nil {
			// Single-copy commit: this chunk's region of C belongs to this
			// unit alone, so the write-back needs no lock.
			err = writeChunk(x.c, x.jobs[u.job].Chunk, blocks, st.copies)
		}
		x.settle(w, err, blocks)
	}
}

// next blocks until worker w has a unit to run, or reports false when w
// should stop (run complete, aborted, or w retired). Under the gate the
// unit's C payload is staged here, under the lock: several copies of one job
// coexist, so a snapshot must never observe a half-committed chunk region and
// the skip decision must be atomic with the commits it reads. Without the
// gate staging is left to runUnit, lock-free.
func (x *core) next(w int, st *stager) (u unit, cBlocks []*matrix.Block, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.err != nil || x.pending == 0 || x.state[w] != alive {
			return unit{}, nil, false
		}
		switch q := x.queues[w]; {
		case len(q) > 0:
			u, x.queues[w] = q[0], q[1:]
		case x.gate == nil:
			// Idle, single-copy: park until a reassignment hands w work.
			x.cond.Wait()
			continue
		default:
			// Idle under the gate: speculate on a pending job. When every
			// pending job is at its copy cap, decode is the only way forward
			// for whatever a parity can cover; park only if that changed
			// nothing.
			if u, ok = x.gate.claim(); !ok {
				if !x.sweep() {
					x.cond.Wait()
				}
				continue
			}
		}
		if x.gate != nil {
			if !x.gate.admit(u) {
				continue
			}
			if u.copy && x.sweep() && (x.err != nil || x.gate.committed[u.job]) {
				// The copy saturated its job's cap, which made a parity decode
				// of the job eligible, and the decode landed it.
				x.gate.release(u)
				continue
			}
			if u.parity == nil {
				cBlocks = st.stageChunk(x.c, x.jobs[u.job].Chunk)
			} else if cBlocks = u.parity.CSeed; !st.copies {
				// Retaining backends mutate the payload they are handed, and
				// the seed must survive a re-dispatch.
				cBlocks = cloneBlocks(cBlocks)
			}
		}
		x.inflight[w] = &flight{u: u, t0: time.Now()}
		return u, cBlocks, true
	}
}

// sweep runs the gate's after-the-fact work: last-resort parity decodes, then
// a wire-cancel of every flight whose outcome can no longer matter. It
// reports whether the run's state moved (a decode landed a job, or failed the
// run). Caller holds x.mu.
func (x *core) sweep() bool {
	n, err := x.gate.decode()
	x.pending -= n
	if err != nil {
		x.fail(err)
	}
	for w, fl := range x.inflight {
		if fl != nil && !fl.canceled && x.gate.lost(fl.u, x.pending == 0) {
			fl.canceled = true
			if x.gate.uc != nil {
				ch, _ := x.shape(fl.u)
				x.gate.uc.CancelUnit(w, ch)
			}
		}
	}
	if n > 0 {
		x.cond.Broadcast()
	}
	return n > 0 || err != nil
}

// shape returns a unit's chunk geometry and installment schedule.
func (x *core) shape(u unit) (matrix.Chunk, [][2]int) {
	if u.parity != nil {
		return u.parity.Chunk, u.parity.Panels
	}
	return x.jobs[u.job].Chunk, x.jobs[u.job].Panels
}

// runUnit runs one unit synchronously on worker w — chunk delivery, every
// installment in order, retrieval — and returns the result blocks. cBlocks is
// the C payload when next already staged it; nil stages the master's current
// copy of the chunk here. Every backend operation is timed once and the
// timing feeds the latency histograms, the run's trace, and (elastic policy)
// the estimate tracker: each send as a transfer of its block count, the
// unit's residual wall time as compute. That split is approximate — a
// backend may absorb compute backpressure inside a send, and the return
// transfer rides inside the RecvC wait — but the sum tracks the unit's true
// wall cost, which is what re-planning compares workers by.
func (x *core) runUnit(w int, u unit, cBlocks []*matrix.Block, st *stager) ([]*matrix.Block, error) {
	mChunks.Inc()
	ch, panels := x.shape(u)
	start := time.Now()
	var transfer time.Duration
	observe := func(kind trace.Kind, blocks int, t0 time.Time) {
		end := time.Now()
		st.observe(w, kind, blocks, t0, end)
		if x.el != nil && kind != trace.RecvC {
			x.el.Tracker.ObserveTransfer(w, blocks, end.Sub(t0))
			transfer += end.Sub(t0)
		}
	}
	// A parity unit carries pre-encoded C and A payloads under borrowed chunk
	// coordinates; only its B panels are the job's own.
	a, raw := x.a, x.raw
	if u.parity != nil {
		a = nil
	} else {
		raw = nil
	}

	if cBlocks == nil {
		cBlocks = st.stageChunk(x.c, ch)
	}
	t0 := time.Now()
	err := x.be.SendC(w, ch, cBlocks)
	if u.parity == nil {
		st.releaseChunk(cBlocks)
	}
	if err != nil {
		return nil, err
	}
	observe(trace.SendC, ch.Blocks(), t0)

	for pi, p := range panels {
		am, bm := st.stagePanels(a, x.b, ch, p[0], p[1])
		if u.parity != nil {
			am = u.parity.ASeeds[pi]
		}
		t0 = time.Now()
		if raw != nil {
			err = raw.SendABRaw(w, ch, p[0], p[1], am, bm)
		} else {
			err = x.be.SendAB(w, ch, p[0], p[1], am, bm)
		}
		if err != nil {
			return nil, err
		}
		observe(trace.SendAB, len(am)+len(bm), t0)
	}

	t0 = time.Now()
	var result []*matrix.Block
	if raw != nil {
		result, err = raw.RecvCRaw(w, ch)
	} else {
		result, err = x.be.RecvC(w, ch)
	}
	if err != nil {
		return nil, err
	}
	observe(trace.RecvC, ch.Blocks(), t0)
	if compute := time.Since(start) - transfer; x.el != nil && compute > 0 {
		x.el.Tracker.ObserveCompute(w, x.items[u.job].Updates, compute)
	}
	return result, nil
}

// settle books the outcome of the unit worker w just ran.
func (x *core) settle(w int, err error, blocks []*matrix.Block) {
	x.mu.Lock()
	defer x.mu.Unlock()
	fl, u := x.inflight[w], x.inflight[w].u
	x.inflight[w] = nil
	if x.gate != nil {
		x.gate.release(u)
	}
	switch {
	case err != nil && x.ctx.Err() != nil:
		x.fail(err) // whatever the abort surfaced as; abortErr keeps it as detail
	case err == nil && x.gate != nil:
		n, cerr := x.gate.commit(u, blocks)
		x.pending -= n
		if cerr != nil {
			x.fail(cerr)
		}
		x.sweep()
	case err == nil:
		x.pending--
		x.sinceReplan++
		if x.el != nil && x.pending > 0 && x.threshold > 0 && x.sinceReplan >= x.nAlive && x.el.Tracker.Drift() > x.threshold {
			x.reassign("drift", nil)
		}
	case x.gate != nil && (errors.Is(err, ErrUnitCanceled) || fl.canceled && errors.Is(err, ErrWorkerDown)):
		// An absorbed straggler (or laggard): the gate had given up on the
		// unit. A clean cancel handshake leaves the link usable; one that had
		// to retire it is still a departure.
		x.gate.red.bump(func(st *RedundancyStats) { st.Absorbed++ })
		hStragglerAbsorbed.Observe(time.Since(fl.t0))
		if errors.Is(err, ErrWorkerDown) {
			x.retire(w, u)
		}
	case errors.Is(err, ErrWorkerDown):
		x.retire(w, u)
	default:
		x.fail(err)
	}
	x.cond.Broadcast()
}

// retire takes worker w out of the run after its link failed with u in
// flight, and hands its orphans — the plan jobs it still owed a result for,
// the one in flight included — to the survivors. This is the only place a
// worker failure and its replays are counted, whichever policies are in
// force. Caller holds x.mu.
func (x *core) retire(w int, u unit) {
	x.state[w] = retired
	x.nAlive--
	mFailovers.Inc()
	var orphans []unit
	for _, o := range append([]unit{u}, x.queues[w]...) {
		// Extra copies and parities die with their worker; under the gate a
		// primary whose job another copy already landed owes nothing either.
		if !o.copy && o.parity == nil && (x.gate == nil || !x.gate.committed[o.job]) {
			orphans = append(orphans, o)
		}
	}
	x.queues[w] = nil
	mReplays.Add(int64(len(orphans)))
	x.reassign("depart", orphans)
}

// reassign is the reassignment policy. Static: deal the orphans round-robin
// onto the survivors' queues; everything already queued stays put. Elastic:
// pool the orphans with every un-dispatched job and redistribute the lot over
// the alive workers by greedy earliest-finish on the live estimates, in-flight
// jobs counting as load — which is why joins and drift call it with no
// orphans at all. A job's chunk region of C is untouched until its result
// lands, so replaying from the master's copy repeats no update and loses
// none. Caller holds x.mu.
func (x *core) reassign(reason string, orphans []unit) {
	var workers []int
	for w, s := range x.state {
		if s == alive {
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		if x.pending > 0 {
			x.fail(fmt.Errorf("engine: no workers left to replay %d chunks: %w", x.pending, ErrWorkerDown))
		}
		return
	}
	if x.el == nil {
		for i, u := range orphans {
			w := workers[i%len(workers)]
			x.queues[w] = append(x.queues[w], u)
		}
		return
	}
	var its []adapt.Item
	for _, u := range orphans {
		its = append(its, x.items[u.job])
	}
	for _, w := range workers {
		for _, u := range x.queues[w] {
			its = append(its, x.items[u.job])
		}
	}
	load := make(map[int]float64)
	for w, fl := range x.inflight {
		if fl != nil {
			load[w] = x.el.Tracker.JobCost(w, x.items[fl.u.job].Blocks, x.items[fl.u.job].Updates)
		}
	}
	for w, list := range adapt.Balance(its, workers, x.el.Tracker, load) {
		x.queues[w] = x.queues[w][:0]
		for _, ji := range list {
			x.queues[w] = append(x.queues[w], unit{job: ji})
		}
	}
	x.sinceReplan = 0
	mReplans.Inc()
	// Rebase so drift is measured against the estimates this assignment was
	// computed with — the re-plan consumed the drift it reacted to.
	x.el.Tracker.Rebase()
	if x.el.OnReplan != nil {
		x.el.OnReplan(reason, len(its))
	}
	x.cond.Broadcast()
}

// materialize forces allocation of every A and B block the jobs reference,
// up front: dispatch goroutines gather overlapping panels concurrently, and
// lazy materialization inside the shared input grids would race. Walking the
// jobs (rather than the whole grids) keeps partial plans over large
// lazily-allocated matrices from paying for blocks no job touches. Parity
// units need no pass of their own: the only panels they gather are B panels
// of a member job (validateRedundancy pins columns and schedule to the
// members').
func materialize(a, b *matrix.BlockMatrix, jobs []sim.PlanJob) {
	for _, j := range jobs {
		ch := j.Chunk
		for _, p := range j.Panels {
			for k := p[0]; k < p[1]; k++ {
				for i := ch.Row0; i < ch.Row0+ch.H; i++ {
					a.Block(i, k)
				}
				for jj := ch.Col0; jj < ch.Col0+ch.W; jj++ {
					b.Block(k, jj)
				}
			}
		}
	}
}

// checkChunksDisjoint verifies no two jobs' chunks share a C block, marking
// covered cells on the r×s grid. Disjointness is what lets completed chunks
// be written back to C concurrently without synchronization (and it is
// implied by any plan that computes the product correctly, since a block
// covered twice would accumulate its initial C contribution twice).
func checkChunksDisjoint(jobs []sim.PlanJob, r, s int) error {
	covered := make([]bool, r*s)
	for _, j := range jobs {
		ch := j.Chunk
		for i := ch.Row0; i < ch.Row0+ch.H; i++ {
			for k := ch.Col0; k < ch.Col0+ch.W; k++ {
				if covered[i*s+k] {
					return fmt.Errorf("engine: plan chunks overlap at C block (%d,%d); concurrent dispatch requires disjoint chunks", i, k)
				}
				covered[i*s+k] = true
			}
		}
	}
	return nil
}
