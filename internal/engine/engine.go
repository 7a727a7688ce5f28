// Package engine executes a scheduled plan for real: master and workers
// exchange actual matrix blocks, workers perform genuine floating-point block
// updates, and the master replays the exact operation order a scheduler
// produced (the Plan recorded by internal/sim).
//
// The package splits into two layers. The backend-agnostic plan execution —
// validation, per-chunk operation ordering, C-accumulation, and failover of
// dead workers' jobs — is shared by every real runtime and comes as exactly
// two loops. ExecuteContext is the sequential oracle: it issues ops strictly
// in plan order from one goroutine, the one-port replay of the paper, and
// every bitwise-C test compares against it. Dispatch is the concurrent core:
// one dispatch goroutine per worker pulls units off per-worker queues, so
// transfers to distinct workers and all computes overlap, and the paper's
// remaining degree of freedom — which worker gets which chunk when — is
// three policy hooks on that one loop, passed as data (Options): reassign
// (round-robin over survivors, or adapt.Balance on live estimates, also on
// join and drift), idle (park, or claim a speculative copy), and commit
// (direct lock-free write of a disjoint chunk, or the first-result-wins
// k-of-n gate). C is bitwise-identical across both loops and every policy.
//
// Run wires either loop, chosen by Config.Pipelined, to the in-process
// backend: workers are goroutines behind channels, and each worker's input
// channel provides one buffered slot so communication to a worker overlaps
// that worker's computation, exactly the double-buffering of the μ²+4μ
// layout. Optionally each transfer is paced at the platform's c_i per block
// so heterogeneous links are felt in wall-clock time; under the concurrent
// core, Config.OnePort serializes those paced slots through a TransferGate,
// recovering the paper's one-port master. internal/net wires the same two
// loops to remote workers over TCP.
//
// Its purpose is verification: after Run, C must equal the reference product,
// proving the scheduler moved every block where it claimed and no update was
// lost — something the pure simulator cannot establish.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Config controls a real execution.
type Config struct {
	Workers int // number of workers referenced by the plan
	T       int // inner block dimension of the product
	// Platform, when non-nil together with TimePerUnit, paces transfers:
	// sending X blocks to worker i sleeps X·c_i·TimePerUnit. Leave
	// TimePerUnit zero for full-speed verification runs.
	Platform    *platform.Platform
	TimePerUnit time.Duration
	// Pipelined selects the concurrent core (Dispatch): each worker's jobs
	// are dispatched by a dedicated goroutine, so transfers to distinct
	// workers and all computes overlap. C is bitwise-identical either way.
	Pipelined bool
	// Options are the concurrent core's policies, so they need Pipelined.
	// In-process goroutine workers neither crash, join nor straggle, so here
	// Elastic means estimate tracking plus drift-triggered rebalancing, and
	// Redundancy mainly keeps the k-of-n gate testable against the oracle
	// backend.
	Options Options
	// OnePort, with Pipelined and pacing, serializes the paced transfer
	// slots across workers through a TransferGate, restoring the paper's
	// one-port master: overlap of transfer and compute, but never of two
	// transfers. Without pacing the gate is idle and costs nothing.
	OnePort bool
	// Procs bounds the goroutines each in-process worker spends on one
	// installment (its C blocks are split across them; per-block arithmetic
	// order is unchanged). ≤1 means sequential — the right default when
	// several goroutine workers already share the process.
	Procs int
}

// message types exchanged between master and workers.
type chunkMsg struct {
	chunk  matrix.Chunk
	blocks []*matrix.Block // row-major H×W
}

type installMsg struct {
	k0, k1 int
	a      []*matrix.Block // H×(k1-k0), row-major
	b      []*matrix.Block // (k1-k0)×W, row-major
}

type workerMsg struct {
	chunk   *chunkMsg
	install *installMsg
	flush   bool // return the current chunk
}

// TransferGate serializes the transfer slots of a one-port master: the
// core's dispatch goroutines hold it only while a (paced) transfer occupies the
// link, never while waiting on a worker's compute. A nil gate is an
// unconstrained (multi-port) master.
type TransferGate struct{ mu sync.Mutex }

// Lock acquires the port; nil-safe.
func (g *TransferGate) Lock() {
	if g != nil {
		g.mu.Lock()
	}
}

// Unlock releases the port; nil-safe.
func (g *TransferGate) Unlock() {
	if g != nil {
		g.mu.Unlock()
	}
}

// chanBackend is the in-process Backend: one goroutine per worker, channels
// as links. Its sends only fail when the run's context is cancelled, so the
// failover paths are inert here.
type chanBackend struct {
	cfg  Config
	ctx  context.Context // the run's context; aborts paced transfers and waits
	gate *TransferGate   // non-nil: serialize paced transfer slots (one-port)
	in   []chan workerMsg
	out  []chan chunkMsg
}

func (cb *chanBackend) Workers() int { return len(cb.in) }

// CopiesBlocks implements CopyingBackend: it reports false because the
// channel transport hands the executor's block pointers straight to the
// worker goroutine, which holds them across the whole job — staging blocks
// must not be recycled behind its back.
func (cb *chanBackend) CopiesBlocks() bool { return false }

// pace charges one transfer slot: it occupies the master's port (the gate,
// when one-port) for the blocks' modeled link time. A cancelled run context
// aborts the slot mid-sleep, so cancellation latency is bounded by one
// select, not by the remaining modeled transfer time.
func (cb *chanBackend) pace(w, blocks int) error {
	if cb.cfg.Platform == nil || cb.cfg.TimePerUnit <= 0 {
		return cb.ctx.Err()
	}
	cb.gate.Lock()
	defer cb.gate.Unlock()
	d := time.Duration(float64(blocks) * cb.cfg.Platform.Workers[w].C * float64(cb.cfg.TimePerUnit))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-cb.ctx.Done():
		return fmt.Errorf("engine: transfer to worker P%d aborted: %w", w+1, cb.ctx.Err())
	}
}

// deliver hands one message to worker w, giving up when the run's context is
// cancelled (the worker may be stalled on a full input slot it will never
// drain in time).
func (cb *chanBackend) deliver(w int, msg workerMsg) error {
	select {
	case cb.in[w] <- msg:
		return nil
	case <-cb.ctx.Done():
		return fmt.Errorf("engine: send to worker P%d aborted: %w", w+1, cb.ctx.Err())
	}
}

func (cb *chanBackend) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	if err := cb.pace(w, ch.Blocks()); err != nil {
		return err
	}
	return cb.deliver(w, workerMsg{chunk: &chunkMsg{chunk: ch, blocks: blocks}})
}

func (cb *chanBackend) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	if err := cb.pace(w, (k1-k0)*(ch.H+ch.W)); err != nil {
		return err
	}
	return cb.deliver(w, workerMsg{install: &installMsg{k0: k0, k1: k1, a: a, b: b}})
}

func (cb *chanBackend) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	if err := cb.deliver(w, workerMsg{flush: true}); err != nil {
		return nil, err
	}
	var done chunkMsg
	select {
	case done = <-cb.out[w]:
	case <-cb.ctx.Done():
		// The worker's answer lands in its buffered out slot instead; the
		// worker never blocks on an abandoned flush.
		return nil, fmt.Errorf("engine: result from worker P%d abandoned: %w", w+1, cb.ctx.Err())
	}
	if done.chunk != ch {
		return nil, fmt.Errorf("engine: worker P%d returned chunk %v, expected %v", w+1, done.chunk, ch)
	}
	// The return transfer is charged after the worker's answer is validated
	// and before the chunk is handed back: the link is busy between the
	// worker finishing and the master owning the data, and under a one-port
	// gate that slot — not the wait for compute — is what serializes against
	// other workers' transfers.
	if err := cb.pace(w, ch.Blocks()); err != nil {
		return nil, err
	}
	return done.blocks, nil
}

// Run replays plan against real matrices on the in-process backend:
// C ← C + A·B restricted to the chunks the plan covers (a correct plan
// covers all of C exactly once). A is r×t, B t×s, C r×s blocks.
//
// Run cannot be interrupted; library callers should prefer RunContext (or
// the matmul facade, which plumbs a context through every runtime).
func Run(cfg Config, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix) error {
	return RunContext(context.Background(), cfg, plan, a, b, c)
}

// RunContext is Run under a context: cancelling ctx aborts dispatch at the
// next operation boundary, interrupts in-flight paced transfers, drains the
// worker goroutines, and returns an error wrapping ctx's error. A run that
// is aborted leaves C partially updated; the input matrices are untouched.
func RunContext(ctx context.Context, cfg Config, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix) error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("engine: need a positive worker count")
	}
	if cfg.Platform != nil && cfg.Platform.P() < cfg.Workers {
		return fmt.Errorf("engine: plan references %d workers but platform has %d", cfg.Workers, cfg.Platform.P())
	}
	if !cfg.Pipelined && cfg.Options != (Options{}) {
		return fmt.Errorf("engine: Config.Options are policies of the concurrent core; set Pipelined")
	}

	cb := &chanBackend{
		cfg: cfg,
		ctx: ctx,
		in:  make([]chan workerMsg, cfg.Workers),
		out: make([]chan chunkMsg, cfg.Workers),
	}
	if cfg.Pipelined && cfg.OnePort {
		cb.gate = &TransferGate{}
	}
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		// Capacity 1 gives each worker one buffered installment slot: the
		// master's send of step k+1 completes while step k computes. The out
		// slot is buffered too, so a worker answering a flush the master
		// abandoned (context cancelled mid-RecvC) never blocks and still
		// drains cleanly when its input channel closes.
		cb.in[w] = make(chan workerMsg, 1)
		cb.out[w] = make(chan chunkMsg, 1)
		go worker(cb.in[w], cb.out[w], errs, cfg.Procs)
	}

	var runErr error
	if cfg.Pipelined {
		runErr = Dispatch(ctx, cfg.T, plan, a, b, c, cb, cfg.Options)
	} else {
		runErr = ExecuteContext(ctx, cfg.T, plan, a, b, c, cb)
	}

	for w := 0; w < cfg.Workers; w++ {
		close(cb.in[w])
	}
	for w := 0; w < cfg.Workers; w++ {
		if err := <-errs; err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}

// worker consumes chunk/installment/flush messages until its channel closes.
// It owns at most one chunk at a time and applies each installment's panels
// with the real block kernel. On a protocol violation it keeps answering
// flushes (with an empty chunk the master will reject) so the master never
// blocks forever, and reports the first error when the channel closes.
func worker(in <-chan workerMsg, out chan<- chunkMsg, errs chan<- error, procs int) {
	var cur *chunkMsg
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}
	for msg := range in {
		switch {
		case msg.chunk != nil:
			if cur != nil {
				fail("engine: worker received a chunk while holding one")
				continue
			}
			cur = msg.chunk
		case msg.install != nil:
			if cur == nil || firstErr != nil {
				fail("engine: worker received inputs with no chunk")
				continue
			}
			inst := msg.install
			if err := ApplyInstallmentParallel(cur.chunk, cur.blocks, inst.a, inst.b, inst.k1-inst.k0, procs); err != nil {
				fail("%v", err)
			}
		case msg.flush:
			if cur == nil {
				fail("engine: flush with no chunk")
				out <- chunkMsg{}
				continue
			}
			out <- *cur
			cur = nil
		}
	}
	errs <- firstErr
}
