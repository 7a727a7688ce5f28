package net

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// WorkerOptions tunes a worker endpoint.
type WorkerOptions struct {
	// Heartbeat is the interval at which the worker beats while serving a
	// master, announced in its registration. Default 500ms.
	Heartbeat time.Duration
	// IdleTimeout ends a session whose socket stays silent this long, so one
	// stalled or mute client cannot wedge the (sequential) serve loop
	// forever. Default 2 minutes; negative disables.
	IdleTimeout time.Duration
	// CrashAfterInstalls is a chaos hook for failover tests: after applying
	// this many installments the worker abruptly closes its connection, as a
	// killed process would. Zero disables.
	CrashAfterInstalls int
	// StallAfterInstalls is a chaos hook for cancellation tests: after
	// applying this many installments the worker stops consuming frames for
	// StallFor (heartbeats keep beating, so the master sees a live-but-slow
	// worker, not a dead one — the case only cancellation can end early).
	// Zero disables.
	StallAfterInstalls int
	// StallFor is how long the StallAfterInstalls stall lasts. Default 30s.
	StallFor time.Duration
	// Procs bounds the goroutines spent on each installment's block updates
	// (the chunk's C blocks are split across them; per-block arithmetic
	// order — and therefore the result — is unchanged). ≤1 computes
	// sequentially; a dedicated worker machine wants runtime.NumCPU().
	Procs int
	// Cache, when non-nil, keeps installed A/B panels across sessions: the
	// worker answers masters' have/need handshakes from it and serves
	// digest-addressed installments' resident panels locally instead of off
	// the wire. Share one cache across every session the daemon serves —
	// surviving lease boundaries is the point. Nil disables caching (the
	// worker answers every handshake "cache off" and masters fall back to
	// full transfers).
	Cache *cache.PanelCache
	// Logger, when non-nil, receives serve-loop events (registrations,
	// session ends) as structured records (worker name, remote address,
	// error attrs); nil discards them.
	Logger *slog.Logger
}

func (o WorkerOptions) heartbeat() time.Duration {
	if o.Heartbeat > 0 {
		return o.Heartbeat
	}
	return 500 * time.Millisecond
}

func (o WorkerOptions) idleTimeout() time.Duration {
	if o.IdleTimeout != 0 {
		return o.IdleTimeout
	}
	return 2 * time.Minute
}

// logger resolves the session logger: Logger tagged with the worker's name,
// or discard.
func (o WorkerOptions) logger(name string) *slog.Logger {
	if o.Logger != nil {
		return o.Logger.With("worker", name)
	}
	return obs.NopLogger()
}

// ErrCrashInjected reports a session ended by the CrashAfterInstalls hook.
var ErrCrashInjected = errors.New("net: worker crash injected")

// ListenAndServe listens on addr and serves master sessions sequentially,
// forever (one master drives the worker at a time, as one MPI rank would).
// It returns only on a listener error.
func ListenAndServe(addr, name string, opts WorkerOptions) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("net: worker listen %s: %w", addr, err)
	}
	defer ln.Close()
	return Serve(ln, name, opts)
}

// Serve accepts master sessions on ln sequentially, forever. Session errors
// are logged (a master vanishing must not kill the worker daemon); accept
// errors back off briefly (an fd-exhausted process must not spin); closing
// the listener ends the loop.
func Serve(ln net.Listener, name string, opts WorkerOptions) error {
	log := opts.logger(name)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return fmt.Errorf("net: worker accept: %w", err)
			}
			log.Warn("accept failed", "err", err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		log.Info("master connected", "remote", conn.RemoteAddr().String())
		if err := ServeConn(conn, name, opts); err != nil {
			log.Warn("session ended", "err", err)
		}
	}
}

// ServeOne accepts and serves exactly one master session.
func ServeOne(ln net.Listener, name string, opts WorkerOptions) error {
	log := opts.logger(name)
	conn, err := ln.Accept()
	if err != nil {
		return fmt.Errorf("net: worker accept: %w", err)
	}
	log.Info("master connected", "remote", conn.RemoteAddr().String())
	err = ServeConn(conn, name, opts)
	log.Info("session ended", "err", err)
	return err
}

// ServeConn runs one master session over conn: register, then hold a chunk,
// apply installments with the shared engine kernel, answer flushes, and beat
// the heartbeat until shutdown or release. It closes conn before returning
// and returns nil on a clean shutdown or release — the two end the session
// alike, and the serve loop simply accepts the next master and registers
// afresh (a daemon exits by its own -sessions count or a signal).
//
// Frames are drained by a dedicated reader goroutine and processed from an
// in-memory queue, so the socket keeps emptying while an installment
// computes — the master's sends never block behind this worker's compute,
// exactly the buffered-installment overlap of the paper's memory layout.
//
// Every block the reader decodes comes from matrix.SharedPool and goes back:
// chunk blocks once their result is flushed, installment blocks once applied,
// and the ones the panel cache absorbed when the cache evicts them. Panels
// served from the cache are read only inside the pin epoch the master's
// handshake opened (see cache.PanelCache), and sessions share opts.Cache one
// after the other, as Serve runs them.
func ServeConn(conn net.Conn, name string, opts WorkerOptions) error {
	conn = obs.CountConn(conn, wSent, wRecv)
	defer conn.Close()

	// Results and heartbeats share the connection, so writes go through one
	// mutex-guarded, immediately-flushed path with a session-lived codec
	// (one reused staging buffer for all outbound block payloads).
	var wmu sync.Mutex
	wr := bufio.NewWriterSize(conn, 1<<16)
	var enc matrix.BlockCodec
	write := func(m *Msg) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := WriteMsg(wr, m, &enc); err != nil {
			return err
		}
		return wr.Flush()
	}

	hb := opts.heartbeat()
	if err := write(&Msg{Kind: MsgHello, Name: name, Kernel: kernel.Name(), Heartbeat: hb}); err != nil {
		return fmt.Errorf("net: worker %s: register: %w", name, err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Skip a beat rather than queue behind a write in progress
				// (or one stalled on full buffers): heartbeats are liveness,
				// not data, and must never delay a result frame.
				if !wmu.TryLock() {
					continue
				}
				err := WriteMsg(wr, &Msg{Kind: MsgHeartbeat}, nil)
				if err == nil {
					err = wr.Flush()
				}
				wmu.Unlock()
				if err != nil {
					return // master is gone; the read loop will see it too
				}
			}
		}
	}()

	type frame struct {
		msg *Msg
		err error
	}
	// The idle deadline guards against clients that connect and go mute
	// before or between jobs. While a chunk is held the session is mid-job —
	// a one-port master legitimately goes silent here while it serves other
	// workers — so the deadline is disarmed; a master that dies mid-job
	// surfaces as a read error via its closing socket or, on a silent
	// partition, the kernel's TCP keepalive probes. busy flags that state to
	// the reader; a timeout that races the flag is simply retried, and the
	// consumer re-arms the deadline directly when a job completes (the
	// reader may already be blocked in a deadline-less read by then).
	var busy atomic.Bool
	idle := opts.idleTimeout()
	// Queue depth bounds how many frames a master can run ahead; one job is
	// at most a chunk, one frame per installment, and a flush, so this
	// accommodates t up to several thousand panels without ever letting the
	// reader stall the socket.
	frames := make(chan frame, 4096)
	// pool recycles every block this session receives: the consumer loop
	// puts installment panels back once applied and chunk blocks back once
	// their result frame is flushed, so the reader's decodes stop allocating
	// once the process is warm (sync.Pool is safe for this cross-goroutine
	// Get/Put traffic).
	pool := &matrix.SharedPool
	go func() {
		rd := bufio.NewReaderSize(conn, 1<<16)
		dec := matrix.BlockCodec{Pool: pool}
		for {
			if idle > 0 && !busy.Load() {
				conn.SetReadDeadline(time.Now().Add(idle))
			} else {
				conn.SetReadDeadline(time.Time{})
			}
			msg, err := ReadMsg(rd, &dec)
			if err != nil && busy.Load() {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					continue // deadline armed just before the job started
				}
			}
			select {
			case frames <- frame{msg: msg, err: err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// A pin epoch opened by a master's have/need handshake must not outlive
	// the session that promised it.
	if opts.Cache != nil {
		defer opts.Cache.UnpinAll()
	}

	var cur matrix.Chunk
	var blocks []*matrix.Block // nil ⇔ no chunk held
	// pending accumulates the current chunk's freshly-streamed panels, keyed
	// by digest: each digest-addressed installment contributes its k-range,
	// and the chunk's flush promotes every fully-covered panel into the
	// cache, which owns the blocks until it evicts them back to the pool.
	pending := make(map[cache.Digest]*pendingPanel)
	// discardPending recycles an abandoned pending set: a new handshake or a
	// cancel arriving mid-accumulation, or the session ending.
	discardPending := func() {
		for dg, ent := range pending {
			pool.PutAll(ent.blocks)
			delete(pending, dg)
		}
	}
	// However the session ends — a master that vanishes mid-chunk included —
	// the held chunk and the pending panels go back to the pool: this loop is
	// their only reader.
	defer func() {
		discardPending()
		pool.PutAll(blocks)
	}()
	installs := 0
	for {
		f := <-frames
		if f.err != nil {
			return fmt.Errorf("net: worker %s: read: %w", name, f.err)
		}
		msg := f.msg
		switch msg.Kind {
		case MsgChunk:
			if blocks != nil {
				return fmt.Errorf("net: worker %s: received chunk %v while holding %v", name, msg.Chunk, cur)
			}
			if msg.Chunk.Blocks() != len(msg.Blocks) {
				return fmt.Errorf("net: worker %s: chunk %v carries %d blocks", name, msg.Chunk, len(msg.Blocks))
			}
			cur, blocks = msg.Chunk, msg.Blocks
			busy.Store(true)
		case MsgInstall:
			if blocks == nil {
				return fmt.Errorf("net: worker %s: received inputs with no chunk", name)
			}
			if msg.Chunk != cur {
				return fmt.Errorf("net: worker %s: inputs for %v while holding %v", name, msg.Chunk, cur)
			}
			am, bm, spent, err := assembleInstall(msg, cur, opts.Cache, pending)
			if err != nil {
				return fmt.Errorf("net: worker %s: %w", name, err)
			}
			err = engine.ApplyInstallmentParallel(cur, blocks, am, bm, msg.K1-msg.K0, opts.Procs)
			// Recycle the consumed wire blocks for the next decode — all but
			// the ones pending absorbed (promised to the cache); resident
			// panels never left the cache.
			pool.PutAll(spent)
			if err != nil {
				return fmt.Errorf("net: worker %s: %w", name, err)
			}
			installs++
			if opts.CrashAfterInstalls > 0 && installs >= opts.CrashAfterInstalls {
				conn.Close() // simulate a killed process: vanish mid-protocol
				return ErrCrashInjected
			}
			if opts.StallAfterInstalls > 0 && installs == opts.StallAfterInstalls {
				// Simulate a live-but-glacial worker: stop consuming for a
				// while (the heartbeat goroutine keeps beating, and the
				// reader goroutine keeps draining the socket into the frame
				// queue), then resume as if nothing happened — unless the
				// master hung up in the meantime, which the next frame read
				// reports.
				stall := opts.StallFor
				if stall <= 0 {
					stall = 30 * time.Second
				}
				time.Sleep(stall)
			}
		case MsgFlush:
			if blocks == nil {
				return fmt.Errorf("net: worker %s: flush with no chunk", name)
			}
			if msg.Chunk != cur {
				return fmt.Errorf("net: worker %s: flush for %v while holding %v", name, msg.Chunk, cur)
			}
			// Promote the chunk's fully-streamed panels before the result
			// frame leaves: the master marks them resident the moment the
			// result arrives, and its view must never run ahead of ours.
			for dg, ent := range pending {
				delete(pending, dg)
				if ent.covered != len(ent.blocks) || opts.Cache == nil {
					// A partially-covered panel at flush means the master
					// skipped installments for it mid-chunk — it never does —
					// but recycle rather than cache a hole.
					pool.PutAll(ent.blocks)
					continue
				}
				if !opts.Cache.Install(dg, ent.blocks) {
					pool.PutAll(ent.blocks) // already resident; ours are spares
				}
			}
			if err := write(&Msg{Kind: MsgResult, Chunk: cur, Blocks: blocks}); err != nil {
				return fmt.Errorf("net: worker %s: send result: %w", name, err)
			}
			// The result frame is written and flushed; the chunk blocks (also
			// pool-born, via the chunk decode) are free for reuse.
			pool.PutAll(blocks)
			blocks = nil
			busy.Store(false)
			if idle > 0 {
				// The reader may be mid-read with no deadline armed;
				// SetReadDeadline applies to blocked reads too.
				conn.SetReadDeadline(time.Now().Add(idle))
			}
		case MsgCancel:
			// The master abandoned the chunk (a k-of-n gate already got this
			// result elsewhere). If we still hold it, drop it and ack with the
			// same frame so the master knows the session is at a clean
			// boundary and can reuse it. A cancel for a chunk we no longer
			// hold is stale — the result frame is already on the wire and the
			// master will take it as a duplicate — so it is ignored, ackless
			// (an ack after the result would desync the master's next unit).
			if blocks != nil && msg.Chunk == cur {
				discardPending()
				pool.PutAll(blocks)
				blocks = nil
				busy.Store(false)
				if err := write(&Msg{Kind: MsgCancel, Chunk: msg.Chunk}); err != nil {
					return fmt.Errorf("net: worker %s: send cancel ack: %w", name, err)
				}
				if idle > 0 {
					conn.SetReadDeadline(time.Now().Add(idle))
				}
			}
		case MsgHave:
			// A master opens a panel-cache epoch: answer which of the job's
			// panels are resident, pinning them for the job's duration. A
			// cacheless worker answers all-absent with CacheOn=false so the
			// master sends it install frames without refs.
			discardPending()
			ack := &Msg{Kind: MsgHaveAck}
			if opts.Cache != nil {
				ack.CacheOn = true
				ack.HaveBits = opts.Cache.BeginJob(msg.Digests)
			} else {
				ack.HaveBits = make([]bool, len(msg.Digests))
			}
			if err := write(ack); err != nil {
				return fmt.Errorf("net: worker %s: send have-ack: %w", name, err)
			}
		case MsgHeartbeat:
			// Master keepalive for a pooled idle session (a fleet pinging
			// between jobs); the read itself already re-armed the idle
			// deadline, so there is nothing else to do.
		case MsgShutdown:
			return nil
		case MsgRelease:
			// End of a leased session: back to the accept loop, where the
			// next master's dial gets a fresh registration.
			opts.logger(name).Info("released by master")
			return nil
		default:
			return fmt.Errorf("net: worker %s: unexpected %s message", name, msg.Kind)
		}
	}
}
