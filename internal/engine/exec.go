package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Backend abstracts where a plan's workers actually live: goroutines behind
// channels (this package's Run) or remote processes behind TCP connections
// (internal/net). Both plan-execution loops drive any Backend with identical
// buffer accounting, per-chunk operation ordering, and C-accumulation, so the
// in-process and networked runtimes cannot drift apart.
//
// Reusable-backend contract: a successful ExecuteContext or Dispatch leaves
// every worker idle (each SendC is balanced by a RecvC, so no worker holds a
// chunk afterwards), and the executors keep no state of their own between
// calls. A Backend whose workers outlive a plan — internal/net's Master over
// persistent worker sessions — may therefore be handed to any number of
// consecutive executions; internal/serve leases such backends across jobs
// without re-establishing the fleet. After a failed execution no such
// guarantee holds (workers may hold chunks, C may be partially updated):
// discard the backend's sessions, not just the error.
type Backend interface {
	// Workers is the number of addressable workers; plans may only reference
	// workers in [0, Workers).
	Workers() int
	// SendC delivers the current contents of chunk ch (cloned from C) to
	// worker w.
	SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error
	// SendAB delivers one installment: A panels a (ch.H×(k1-k0), row-major)
	// and B panels b ((k1-k0)×ch.W, row-major) for inner range [k0, k1).
	SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error
	// RecvC asks worker w to return its finished chunk, which must be ch, and
	// yields the ch.Blocks() updated C blocks in row-major order.
	RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error)
}

// CopyingBackend is optionally implemented by Backends that move block
// contents rather than pointers (serializing transports like internal/net):
// SendC/SendAB are done with their payloads when they return, and the blocks
// RecvC yields are carriers the executor owns outright. Against such a
// backend blocks cycle through matrix.SharedPool both ways: a chunk snapshot
// is staged in pool blocks and recycled the moment its send returns, and a
// returned chunk is copied into C's existing blocks, its carriers going back
// to the pool — a steady-state run allocates nothing per chunk. Backends that
// hand pointers through (the channel backend) must not implement this, or
// must report false: their snapshots are fresh and their results are swapped
// into C, with no copy either way.
type CopyingBackend interface {
	CopiesBlocks() bool
}

// ErrWorkerDown marks a backend operation that failed because the worker is
// gone (connection lost, heartbeat timeout). Both loops react by re-queueing
// the worker's outstanding jobs onto survivors; any other backend error
// aborts the run.
var ErrWorkerDown = errors.New("worker down")

// stager owns one dispatch path's staging state: scratch slices for panel
// gathering and chunk cloning, reused across operations when (and only when)
// the backend is a CopyingBackend — copies also tells writeChunk whether a
// returned chunk's blocks are carriers to copy out of and recycle, or
// pointers to swap into C. One stager per goroutine —
// it is deliberately not synchronized. rec, when non-nil, receives one trace
// event per backend operation (the Recorder itself is concurrency-safe).
type stager struct {
	copies       bool
	cBuf, am, bm []*matrix.Block
	rec          *trace.Recorder
}

func newStager(be Backend) *stager { return &stager{copies: copiesBlocks(be)} }

func copiesBlocks(be Backend) bool {
	cp, ok := be.(CopyingBackend)
	return ok && cp.CopiesBlocks()
}

// stageChunk snapshots chunk ch of c. Against a copying backend the snapshot
// lives in pooled blocks and a reused slice; otherwise it is freshly
// allocated, because the backend will hold it for the whole job.
func (st *stager) stageChunk(c *matrix.BlockMatrix, ch matrix.Chunk) []*matrix.Block {
	if !st.copies {
		return cloneChunk(c, ch, nil, nil)
	}
	st.cBuf = cloneChunk(c, ch, &matrix.SharedPool, st.cBuf[:0])
	return st.cBuf
}

// releaseChunk recycles a stageChunk snapshot once the backend is done with
// it (no-op for retaining backends).
func (st *stager) releaseChunk(blocks []*matrix.Block) {
	if st.copies {
		matrix.SharedPool.PutAll(blocks)
	}
}

// stagePanels gathers the A/B panels of installment [k0, k1), reusing the
// stager's slices against copying backends.
func (st *stager) stagePanels(a, b *matrix.BlockMatrix, ch matrix.Chunk, k0, k1 int) (am, bm []*matrix.Block) {
	if !st.copies {
		return gatherPanels(a, b, ch, k0, k1, nil, nil)
	}
	st.am, st.bm = gatherPanels(a, b, ch, k0, k1, st.am[:0], st.bm[:0])
	return st.am, st.bm
}

// Execute replays plan against real matrices through be: C ← C + A·B
// restricted to the chunks the plan covers. A is r×t, B t×s, C r×s blocks.
// The plan is validated up front (protocol, worker range, chunk geometry,
// panel ranges), then ops are issued in plan order. Workers that fail with
// ErrWorkerDown are retired and their incomplete jobs replayed on surviving
// workers; Execute fails only when a non-failover error occurs or no workers
// remain.
func Execute(t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, be Backend) error {
	return ExecuteContext(context.Background(), t, plan, a, b, c, be)
}

// abortErr folds a run's outcome with its context: once ctx is done, the
// caller's cancellation is the result — whatever secondary error the abort
// provoked on the way down (retired links, half-delivered installments) is
// kept as detail, and errors.Is(err, ctx.Err()) holds either way.
func abortErr(ctx context.Context, err error) error {
	ctxErr := ctx.Err()
	if ctxErr == nil {
		return err
	}
	if err == nil || errors.Is(err, ctxErr) {
		return fmt.Errorf("engine: run aborted: %w", ctxErr)
	}
	return fmt.Errorf("engine: run aborted: %w (abort surfaced as: %v)", ctxErr, err)
}

// ExecuteContext is Execute under a context: cancellation stops dispatch at
// the next operation boundary and fails the run with an error wrapping
// ctx.Err(). C may be left partially updated; see the Backend docs — after
// any failed execution the backend's workers must be considered tainted.
func ExecuteContext(ctx context.Context, t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, be Backend) error {
	jobs, opJob, err := validatePlan(t, plan, a, b, c, be)
	if err != nil {
		return err
	}
	nw := be.Workers()
	st := newStager(be)
	st.rec = trace.FromContext(ctx)

	alive := make([]bool, nw)
	for i := range alive {
		alive[i] = true
	}
	done := make([]bool, len(jobs))
	var orphans []int // jobs whose worker died before their RecvC landed
	retire := func(w int) {
		if !alive[w] {
			return
		}
		alive[w] = false
		mFailovers.Inc()
		replayed := int64(0)
		for ji, j := range jobs {
			if j.Worker == w && !done[ji] {
				orphans = append(orphans, ji)
				replayed++
			}
		}
		mReplays.Add(replayed)
	}

	for i, op := range plan {
		if ctx.Err() != nil {
			return abortErr(ctx, nil)
		}
		w := op.Worker
		if !alive[w] {
			continue // ops of a retired worker; its jobs are queued for replay
		}
		var opErr error
		switch op.Kind {
		case trace.SendC:
			mChunks.Inc()
			blocks := st.stageChunk(c, op.Chunk)
			t0 := time.Now()
			opErr = be.SendC(w, op.Chunk, blocks)
			if opErr == nil {
				st.observe(w, trace.SendC, op.Chunk.Blocks(), t0, time.Now())
			}
			st.releaseChunk(blocks)
		case trace.SendAB:
			am, bm := st.stagePanels(a, b, op.Chunk, op.K0, op.K1)
			t0 := time.Now()
			opErr = be.SendAB(w, op.Chunk, op.K0, op.K1, am, bm)
			if opErr == nil {
				st.observe(w, trace.SendAB, len(am)+len(bm), t0, time.Now())
			}
		case trace.RecvC:
			var blocks []*matrix.Block
			t0 := time.Now()
			blocks, opErr = be.RecvC(w, op.Chunk)
			if opErr == nil {
				st.observe(w, trace.RecvC, op.Chunk.Blocks(), t0, time.Now())
				if opErr = writeChunk(c, op.Chunk, blocks, st.copies); opErr == nil {
					done[opJob[i]] = true
				}
			}
		}
		if opErr != nil {
			if errors.Is(opErr, ErrWorkerDown) && ctx.Err() == nil {
				retire(w)
				continue
			}
			return abortErr(ctx, opErr)
		}
	}

	// Replay orphaned jobs round-robin over the survivors. A job's chunk
	// region of C is untouched until its RecvC lands, so replaying from the
	// master's copy repeats no update and loses none.
	next := 0
	for len(orphans) > 0 {
		if ctx.Err() != nil {
			return abortErr(ctx, nil)
		}
		ji := orphans[0]
		orphans = orphans[1:]
		w, ok := nextAlive(alive, &next)
		if !ok {
			return fmt.Errorf("engine: no workers left to replay chunk %v: %w", jobs[ji].Chunk, ErrWorkerDown)
		}
		if err := runJob(be, w, jobs[ji], a, b, c, st); err != nil {
			if errors.Is(err, ErrWorkerDown) && ctx.Err() == nil {
				retire(w)
				orphans = append(orphans, ji)
				continue
			}
			return abortErr(ctx, err)
		}
		done[ji] = true
	}
	return nil
}

// validatePlan performs the shape, protocol, worker-range, chunk-geometry,
// and panel-range checks shared by both loops, returning the plan's jobs and
// the op→job mapping.
func validatePlan(t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, be Backend) (jobs []sim.PlanJob, opJob []int, err error) {
	if a.Rows != c.Rows || b.Cols != c.Cols || a.Cols != b.Rows || a.Cols != t {
		return nil, nil, fmt.Errorf("engine: shape mismatch A %dx%d, B %dx%d, C %dx%d, t=%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols, t)
	}
	jobs, opJob, err = sim.JobsFromPlan(plan)
	if err != nil {
		return nil, nil, err
	}
	nw := be.Workers()
	for _, j := range jobs {
		if j.Worker >= nw {
			return nil, nil, fmt.Errorf("engine: plan references worker %d of %d", j.Worker, nw)
		}
		if !j.Chunk.Valid(c.Rows, c.Cols) {
			return nil, nil, fmt.Errorf("engine: plan chunk %v outside C (%dx%d)", j.Chunk, c.Rows, c.Cols)
		}
		for _, p := range j.Panels {
			if p[0] < 0 || p[1] > t || p[0] >= p[1] {
				return nil, nil, fmt.Errorf("engine: plan installment panels [%d,%d) outside t=%d", p[0], p[1], t)
			}
		}
	}
	return jobs, opJob, nil
}

// runJob runs one complete job synchronously on worker w: chunk delivery,
// every installment in order, retrieval, and the write-back into C. It is
// the replay unit of the sequential loop's failover.
func runJob(be Backend, w int, j sim.PlanJob, a, b, c *matrix.BlockMatrix, st *stager) error {
	mChunks.Inc()
	blocks := st.stageChunk(c, j.Chunk)
	t0 := time.Now()
	err := be.SendC(w, j.Chunk, blocks)
	if err == nil {
		st.observe(w, trace.SendC, j.Chunk.Blocks(), t0, time.Now())
	}
	st.releaseChunk(blocks)
	if err != nil {
		return err
	}
	for _, p := range j.Panels {
		am, bm := st.stagePanels(a, b, j.Chunk, p[0], p[1])
		t0 = time.Now()
		if err := be.SendAB(w, j.Chunk, p[0], p[1], am, bm); err != nil {
			return err
		}
		st.observe(w, trace.SendAB, len(am)+len(bm), t0, time.Now())
	}
	t0 = time.Now()
	result, err := be.RecvC(w, j.Chunk)
	if err != nil {
		return err
	}
	st.observe(w, trace.RecvC, j.Chunk.Blocks(), t0, time.Now())
	return writeChunk(c, j.Chunk, result, st.copies)
}

func nextAlive(alive []bool, cursor *int) (int, bool) {
	for range alive {
		w := *cursor % len(alive)
		*cursor++
		if alive[w] {
			return w, true
		}
	}
	return 0, false
}

// cloneChunk snapshots chunk ch of c in row-major order into dst (grown as
// needed; pass nil for a fresh slice). With a pool, the snapshot blocks are
// recycled ones — the caller owns them and decides when to Put them back.
func cloneChunk(c *matrix.BlockMatrix, ch matrix.Chunk, pool *matrix.BlockPool, dst []*matrix.Block) []*matrix.Block {
	if dst == nil {
		dst = make([]*matrix.Block, 0, ch.Blocks())
	}
	for i := ch.Row0; i < ch.Row0+ch.H; i++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			src := c.Block(i, j)
			if pool == nil {
				dst = append(dst, src.Clone())
				continue
			}
			blk := pool.Get(c.Q)
			copy(blk.Data, src.Data)
			dst = append(dst, blk)
		}
	}
	return dst
}

// gatherPanels collects the A panels (ch.H×d, row-major) and B panels
// (d×ch.W, row-major) of installment [k0, k1) for chunk ch, appending to
// amDst and bmDst (pass nil for fresh slices). The returned entries alias
// the input matrices' blocks; only the slice headers are staged. A nil a
// skips the A side (parity units bring their own pre-encoded A panels).
func gatherPanels(a, b *matrix.BlockMatrix, ch matrix.Chunk, k0, k1 int, amDst, bmDst []*matrix.Block) (am, bm []*matrix.Block) {
	d := k1 - k0
	if amDst == nil && a != nil {
		amDst = make([]*matrix.Block, 0, ch.H*d)
	}
	if bmDst == nil {
		bmDst = make([]*matrix.Block, 0, d*ch.W)
	}
	for i := ch.Row0; a != nil && i < ch.Row0+ch.H; i++ {
		for k := k0; k < k1; k++ {
			amDst = append(amDst, a.Block(i, k))
		}
	}
	for k := k0; k < k1; k++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			bmDst = append(bmDst, b.Block(k, j))
		}
	}
	return amDst, bmDst
}

// writeChunk lands a returned chunk in c: carriers (a copying backend's
// blocks) are copied into c's existing blocks and recycled, anything else is
// swapped in. Either way c's chunk region is untouched until the whole result
// is in hand and validated — failover replays from it.
func writeChunk(c *matrix.BlockMatrix, ch matrix.Chunk, blocks []*matrix.Block, carriers bool) error {
	if len(blocks) != ch.Blocks() {
		return fmt.Errorf("engine: result for %v has %d blocks, want %d", ch, len(blocks), ch.Blocks())
	}
	for _, blk := range blocks {
		if blk == nil || blk.Q != c.Q {
			return fmt.Errorf("engine: result for %v carries a block with edge mismatch", ch)
		}
	}
	idx := 0
	for i := ch.Row0; i < ch.Row0+ch.H; i++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			if carriers {
				copy(c.Block(i, j).Data, blocks[idx].Data)
			} else {
				c.SetBlock(i, j, blocks[idx])
			}
			idx++
		}
	}
	if carriers {
		matrix.SharedPool.PutAll(blocks)
	}
	return nil
}

// ApplyInstallment performs the block updates one installment enables on a
// held chunk: cb (ch.H×ch.W, row-major) accumulates ab·bb where ab is
// ch.H×d and bb d×ch.W, d = k1-k0 panels deep. Both the goroutine worker and
// the networked worker apply installments through this one function, so every
// backend performs bitwise-identical arithmetic.
func ApplyInstallment(ch matrix.Chunk, cb, ab, bb []*matrix.Block, d int) error {
	return ApplyInstallmentParallel(ch, cb, ab, bb, d, 1)
}

// ApplyInstallmentParallel is ApplyInstallment across up to procs goroutines.
// Each C block (i,j) of the chunk is owned by exactly one goroutine, which
// applies that block's d panel updates in ascending-k order — no two
// goroutines touch the same block and the per-block floating-point order is
// exactly the sequential one, so the result is bitwise-identical for every
// procs value. procs ≤ 1 runs inline; procs ≤ 0 is treated as 1.
func ApplyInstallmentParallel(ch matrix.Chunk, cb, ab, bb []*matrix.Block, d, procs int) error {
	if d <= 0 || len(cb) != ch.H*ch.W || len(ab) != ch.H*d || len(bb) != d*ch.W {
		return fmt.Errorf("engine: installment shape mismatch: chunk %v, d=%d, |c|=%d |a|=%d |b|=%d",
			ch, d, len(cb), len(ab), len(bb))
	}
	blocks := ch.H * ch.W
	if procs > blocks {
		procs = blocks
	}
	if procs <= 1 {
		applyBlockRange(ch, cb, ab, bb, d, 0, blocks, 1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			applyBlockRange(ch, cb, ab, bb, d, g, blocks, procs)
		}(g)
	}
	wg.Wait()
	return nil
}

// applyBlockRange updates C blocks start, start+stride, … of the chunk, each
// through its full ascending-k panel sequence.
func applyBlockRange(ch matrix.Chunk, cb, ab, bb []*matrix.Block, d, start, blocks, stride int) {
	for idx := start; idx < blocks; idx += stride {
		i, j := idx/ch.W, idx%ch.W
		cij := cb[idx]
		for dk := 0; dk < d; dk++ {
			matrix.MulAdd(cij, ab[i*d+dk], bb[dk*ch.W+j])
		}
	}
}
