package net

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// MasterOptions tunes the master's link handling.
type MasterOptions struct {
	// DialTimeout bounds each worker connection attempt. Default 10s.
	DialTimeout time.Duration
	// IOTimeout bounds every send and, together with the worker's announced
	// heartbeat interval, every receive: a worker that neither beats nor
	// answers within max(IOTimeout, 3×heartbeat) is declared down. Default 30s.
	IOTimeout time.Duration
	// OnePort serializes outbound frames across workers when Execute drives
	// the links concurrently, approximating the paper's one-port
	// master on the send side (return transfers ride the kernel's receive
	// path and are not gated). Faithful to the model, the port stays busy
	// for a send's full duration — including a stalled worker's, so a dead
	// link can head-of-line-block every send for up to IOTimeout before
	// failover kicks in. Leave false (the default) for throughput or fast
	// failover: real worker links have their own capacity anyway.
	OnePort bool
}

func (o *MasterOptions) withDefaults() MasterOptions {
	out := MasterOptions{DialTimeout: 10 * time.Second, IOTimeout: 30 * time.Second}
	if o != nil {
		if o.DialTimeout > 0 {
			out.DialTimeout = o.DialTimeout
		}
		if o.IOTimeout > 0 {
			out.IOTimeout = o.IOTimeout
		}
		out.OnePort = o.OnePort
	}
	return out
}

// link is one worker connection; a nil conn marks a retired worker. Each
// link carries its own block codecs (one per direction) so the core's
// per-worker dispatch goroutines encode and decode without shared state,
// and steady-state frames reuse the codecs' scratch buffers.
type link struct {
	conn      net.Conn
	rd        *bufio.Reader
	wr        *bufio.Writer
	name      string
	kernel    string // block-update kernel the worker announced at registration
	heartbeat time.Duration
	enc, dec  matrix.BlockCodec
	abBuf     []*matrix.Block // install payload scratch, reused per send

	// cancel asks the dispatch goroutine that owns this link to abandon its
	// in-flight unit (set by CancelUnit from the k-of-n gate's goroutine, the
	// one cross-goroutine signal a link carries). The owner notices it in the
	// receive loop — workers heartbeat, so a live link wakes within one
	// interval — performs the cancel handshake itself, and clears the flag.
	cancel atomic.Bool

	// Panel-cache epoch state (see mastercache.go). Reset by every BeginJob,
	// so nothing here ever outlives the handshake that established it: have
	// holds the digests known resident on the worker — handshake answers plus
	// promotions from this job's own completed chunks — and cacheable records
	// whether the worker answered the handshake with a live cache at all.
	// Owned by whoever owns the link: the pre-run handshake, then the one
	// dispatch goroutine driving the link, then post-run snapshotting.
	have      map[cache.Digest]bool
	cacheable bool
}

// WorkerConn is one registered, open worker connection, detached from any
// master. It is the unit a long-lived service pools: dial once, lease the
// connection to a Master for a job (NewMaster), recover it afterwards
// (Master.Detach), and reuse it for the next job — the worker session
// survives end-of-job, so no re-dial, re-registration, or codec warm-up is
// paid between jobs. A WorkerConn is not safe for concurrent use; hand it to
// one master (or one keepalive loop) at a time.
type WorkerConn struct {
	l    *link
	opts MasterOptions
}

// DialWorker connects to one worker and collects its registration.
func DialWorker(addr string, opts *MasterOptions) (*WorkerConn, error) {
	return DialWorkerContext(context.Background(), addr, opts)
}

// DialWorkerContext is DialWorker bounded by ctx: both the TCP connect and
// the registration read finish by the earlier of ctx's deadline and the
// configured DialTimeout, and a cancelled ctx aborts either phase in flight
// — the connect through the dialer, the registration read through an
// immediately-expired deadline.
func DialWorkerContext(ctx context.Context, addr string, opts *MasterOptions) (*WorkerConn, error) {
	o := opts.withDefaults()
	d := net.Dialer{Timeout: o.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("net: dial worker %s: %w", addr, err)
	}
	conn = obs.CountConn(conn, mSentTo.With(addr), mRecvFrom.With(addr))
	l := &link{conn: conn, rd: bufio.NewReaderSize(conn, 1<<16), wr: bufio.NewWriterSize(conn, 1<<16)}
	l.dec.Pool = &matrix.SharedPool // results are carriers, see engine.CopyingBackend
	conn.SetReadDeadline(deadlineWithin(ctx, o.DialTimeout))
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	hello, err := ReadMsg(l.rd, nil)
	stop()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("net: bad registration from %s: %v", addr, err)
	}
	if hello.Kind != MsgHello {
		conn.Close()
		return nil, fmt.Errorf("net: bad registration from %s: got %s frame, want hello", addr, hello.Kind)
	}
	// Clear both directions: a cancellation that raced a successful
	// registration may have left an expired write deadline behind.
	conn.SetDeadline(time.Time{})
	l.name, l.kernel, l.heartbeat = hello.Name, hello.Kernel, hello.Heartbeat
	return &WorkerConn{l: l, opts: o}, nil
}

// deadlineWithin returns now+d, clipped to ctx's deadline when that is
// sooner: the caller's context budget wins over a configured default.
func deadlineWithin(ctx context.Context, d time.Duration) time.Time {
	dl := time.Now().Add(d)
	if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
		dl = cd
	}
	return dl
}

// Name returns the name the worker announced at registration.
func (wc *WorkerConn) Name() string { return wc.l.name }

// Kernel returns the block-update kernel the worker announced at
// registration.
func (wc *WorkerConn) Kernel() string { return wc.l.kernel }

// Alive reports whether the connection has not been closed or retired.
func (wc *WorkerConn) Alive() bool { return wc.l.conn != nil }

// Ping sends a master→worker heartbeat, keeping an idle pooled session from
// tripping the worker's idle timeout. An error means the link is dead; the
// caller should Close and re-dial.
func (wc *WorkerConn) Ping() error {
	l := wc.l
	if l.conn == nil {
		return fmt.Errorf("net: ping worker %s: link retired", l.name)
	}
	l.conn.SetWriteDeadline(time.Now().Add(wc.opts.IOTimeout))
	err := WriteMsg(l.wr, &Msg{Kind: MsgHeartbeat}, nil)
	if err == nil {
		err = l.wr.Flush()
	}
	if err != nil {
		return fmt.Errorf("net: ping worker %s: %w", l.name, err)
	}
	return nil
}

// DrainBacklog consumes the worker heartbeats an idle pooled connection
// accumulates (workers beat for the whole session, masters only read during
// jobs), so the socket buffer never fills while the connection waits between
// leases. It never blocks: frames are consumed only when complete, a partial
// frame stays buffered for the next drain, and the stream remains at a frame
// boundary. A non-heartbeat frame or a dead socket is an error; the caller
// should Close and re-dial.
func (wc *WorkerConn) DrainBacklog() error {
	l := wc.l
	if l.conn == nil {
		return fmt.Errorf("net: drain worker %s: link retired", l.name)
	}
	defer l.conn.SetReadDeadline(time.Time{})
	for {
		l.conn.SetReadDeadline(time.Now().Add(time.Millisecond))
		hdr, err := l.rd.Peek(wire.HeaderLen)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil // drained (a partial frame may stay buffered)
			}
			return fmt.Errorf("net: drain worker %s: %w", l.name, err)
		}
		kind, n, err := proto.ParseHeader(hdr)
		if err != nil {
			return fmt.Errorf("net: drain worker %s: %w", l.name, err)
		}
		if k := MsgKind(kind); k != MsgHeartbeat || n != 0 {
			return fmt.Errorf("net: worker %s sent %s frame while idle", l.name, k)
		}
		l.rd.Discard(wire.HeaderLen)
	}
}

// releaseDrain bounds the read-to-EOF that follows a release frame: the
// worker closes the session as soon as it processes the release, so the
// drain normally ends in milliseconds; the bound only caps a wedged peer.
const releaseDrain = time.Second

// drainToEOF consumes whatever the worker still has in flight (buffered
// heartbeats, the EOF of its closing socket) after a release frame was sent.
// Closing with unread received data would RST the connection and could
// destroy the in-flight release frame before the worker reads it; reading to
// EOF first makes the handshake clean.
func drainToEOF(l *link) {
	l.conn.SetReadDeadline(time.Now().Add(releaseDrain))
	for {
		if _, err := ReadMsg(l.rd, &l.dec); err != nil {
			return
		}
	}
}

// Release ends the worker's session without killing the daemon: the worker
// returns to its accept loop and re-registers with the next master that
// dials. The connection is closed either way.
func (wc *WorkerConn) Release() error {
	l := wc.l
	if l.conn == nil {
		return nil
	}
	l.conn.SetWriteDeadline(time.Now().Add(wc.opts.IOTimeout))
	err := WriteMsg(l.wr, &Msg{Kind: MsgRelease}, nil)
	if err == nil {
		err = l.wr.Flush()
	}
	if err == nil {
		drainToEOF(l)
	}
	wc.Close()
	if err != nil {
		return fmt.Errorf("net: release worker %s: %w", l.name, err)
	}
	return nil
}

// Close drops the connection without any handshake.
func (wc *WorkerConn) Close() {
	if wc.l.conn != nil {
		wc.l.conn.Close()
		wc.l.conn = nil
	}
}

// Master drives remote workers over TCP. It implements engine.Backend, so
// RunContext and Execute run plans through exactly the same two loops as the
// in-process engine; only the block transport differs.
//
// A Master is reusable: successive RunContext/Execute calls replay successive
// plans over the same worker sessions (each job leaves every worker idle
// again), and Detach recovers the still-open connections for pooling.
//
// A Master is also *growable*: AddWorker joins a registered connection while
// a run is in flight, which is how Execute's elastic policy re-plans mid-job
// onto workers that arrive after the job started.
type Master struct {
	opts MasterOptions
	gate *engine.TransferGate // non-nil when opts.OnePort: serializes sends

	// mu guards the link table (AddWorker appends while dispatch goroutines
	// index it) and the lifecycle flags. Individual links stay single-owner:
	// at most one dispatch goroutine drives a given link at a time.
	mu       sync.RWMutex
	links    []*link
	stats    []*linkStats // parallel to links: per-lease cache counters
	jp       *cache.JobPanels
	detached bool
	run      *runBinding // non-nil while a run is in flight
	// runCtx is the context of the run in flight (nil between runs). It is
	// set single-threaded before the executor spawns its dispatch goroutines
	// and cleared after they join, so the concurrent reads in send/RecvC are
	// ordered by the goroutine create/join edges.
	runCtx context.Context
}

var _ engine.Backend = (*Master)(nil)
var _ engine.CopyingBackend = (*Master)(nil)

// CopiesBlocks implements engine.CopyingBackend: SendC and SendAB put every
// block on the wire and flush before returning, and RecvC's blocks are
// pool-born carriers nothing else references, so the executor recycles both
// the moment it is done with them.
func (m *Master) CopiesBlocks() bool { return true }

// Dial connects to every worker address and collects their registrations.
// Worker i of any plan maps to addrs[i].
func Dial(addrs []string, opts *MasterOptions) (*Master, error) {
	return DialContext(context.Background(), addrs, opts)
}

// DialContext is Dial bounded by ctx: each per-worker connect and
// registration finishes within the earlier of ctx's deadline and
// DialTimeout, and cancelling ctx aborts the whole dial sequence.
func DialContext(ctx context.Context, addrs []string, opts *MasterOptions) (*Master, error) {
	conns := make([]*WorkerConn, 0, len(addrs))
	for _, addr := range addrs {
		wc, err := DialWorkerContext(ctx, addr, opts)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, wc)
	}
	return NewMaster(conns, opts)
}

// NewMaster leases already-dialed worker connections to a fresh master:
// worker i of any plan maps to conns[i]. The master owns the connections
// until Detach, Release, Shutdown, or Close; the conns must not be used
// directly in the meantime.
func NewMaster(conns []*WorkerConn, opts *MasterOptions) (*Master, error) {
	m := &Master{opts: opts.withDefaults()}
	if m.opts.OnePort {
		m.gate = &engine.TransferGate{}
	}
	for i, wc := range conns {
		if wc == nil || wc.l.conn == nil {
			return nil, fmt.Errorf("net: worker conn %d is closed", i)
		}
		wc.l.have, wc.l.cacheable = nil, false
		wc.l.cancel.Store(false)
		m.links = append(m.links, wc.l)
		m.stats = append(m.stats, &linkStats{})
	}
	return m, nil
}

// AddWorker joins an already-registered worker connection to this master:
// the link is appended and becomes addressable as the next plan worker
// index, which AddWorker returns. It is safe while a run is in flight — the
// elastic policy (Execute with Options.Elastic) is told the index through
// Elastic.Join and re-plans un-dispatched chunks onto the newcomer; a
// cancellation arriving meanwhile reaches the new connection too. The
// master owns the connection from here on, exactly as if it had been part
// of NewMaster's lease. Fails once the master has been detached or spent.
func (m *Master) AddWorker(wc *WorkerConn) (int, error) {
	if wc == nil || wc.l.conn == nil {
		return 0, fmt.Errorf("net: add worker: connection is closed")
	}
	// If a panel-cache epoch is open, handshake the newcomer before it enters
	// the table: until the append below, this call owns the link exclusively,
	// so the raw codec I/O cannot race a dispatch goroutine. A failed
	// handshake just leaves the worker cacheless for this job.
	st := &linkStats{}
	wc.l.have, wc.l.cacheable = nil, false
	wc.l.cancel.Store(false)
	if jp := m.jobPanels(); jp != nil {
		if err := handshakeLink(wc.l, m.opts, st, jp); err != nil {
			return 0, fmt.Errorf("net: add worker %s: cache handshake: %w", wc.l.name, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.detached {
		return 0, fmt.Errorf("net: add worker %s: master already detached", wc.l.name)
	}
	m.links = append(m.links, wc.l)
	m.stats = append(m.stats, st)
	if m.run != nil {
		m.run.add(wc.l.conn)
	}
	return len(m.links) - 1, nil
}

// link returns worker w's link (nil when out of range). The pointer is
// stable; only the table itself needs the lock.
func (m *Master) link(w int) *link {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if w < 0 || w >= len(m.links) {
		return nil
	}
	return m.links[w]
}

// linkSnapshot copies the current link table for lock-free iteration.
func (m *Master) linkSnapshot() []*link {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]*link(nil), m.links...)
}

// Detach releases the master's hold on its connections and returns them,
// still open and registered, for reuse by a later NewMaster: position i holds
// conns[i] of the original lease — AddWorker-joined connections included, in
// join order — nil where that worker died during the job. The master is
// spent afterwards (no links remain, AddWorker fails).
func (m *Master) Detach() []*WorkerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*WorkerConn, len(m.links))
	for i, l := range m.links {
		if l.conn != nil {
			out[i] = &WorkerConn{l: l, opts: m.opts}
		}
	}
	m.links = nil
	m.detached = true
	return out
}

// WorkerNames returns the registered worker names in plan-index order.
func (m *Master) WorkerNames() []string {
	links := m.linkSnapshot()
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.name
	}
	return names
}

// Workers implements engine.Backend.
func (m *Master) Workers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.links)
}

// down retires a worker's link and wraps the cause as engine.ErrWorkerDown so
// the engine re-queues its jobs. The conn field is nilled under the table lock
// so CancelUnit's concurrent snapshot never races the retirement.
func (m *Master) down(w int, op string, cause error) error {
	l := m.link(w)
	name := l.name
	m.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	m.mu.Unlock()
	return fmt.Errorf("net: %s to worker %d (%s): %v: %w", op, w, name, cause, engine.ErrWorkerDown)
}

// cancelWait bounds how long a cancel handshake waits for the worker's ack
// (or its already-in-flight result): long enough for a live worker's next
// heartbeat to prove the consumer is reading, short enough that a stalled one
// costs far less than a heartbeat timeout.
func cancelWait(l *link) time.Duration {
	wait := 3 * l.heartbeat
	if wait < 300*time.Millisecond {
		wait = 300 * time.Millisecond
	}
	if wait > 3*time.Second {
		wait = 3 * time.Second
	}
	return wait
}

// CancelUnit implements engine.UnitCanceler: ask worker w's dispatch
// goroutine to abandon the unit it has in flight. Only the flag is set here —
// the owning goroutine performs the wire handshake itself, so this never
// writes on a link another goroutine may be mid-frame on. The read deadline
// is shortened so an owner parked in a long result wait on a heartbeat-dead
// link wakes promptly instead of serving out IOTimeout.
func (m *Master) CancelUnit(w int, ch matrix.Chunk) {
	m.mu.RLock()
	var l *link
	var conn net.Conn
	if w >= 0 && w < len(m.links) {
		l = m.links[w]
		conn = l.conn
	}
	m.mu.RUnlock()
	if l == nil || conn == nil {
		return
	}
	l.cancel.Store(true)
	conn.SetReadDeadline(time.Now().Add(cancelWait(l)))
}

// ioDeadline is now+base clipped to the running context's deadline, so a
// ctx with a budget shorter than IOTimeout bounds every blocking send and
// receive. A cancelled ctx interrupts I/O already parked through the slam
// installed in runContext; an operation that only starts after the slam would
// overwrite the expired deadline it left, so it gets an expired one here.
func (m *Master) ioDeadline(base time.Duration) time.Time {
	if m.runCtx == nil {
		return time.Now().Add(base)
	}
	if m.runCtx.Err() != nil {
		return time.Now()
	}
	return deadlineWithin(m.runCtx, base)
}

// send frames one message to worker w with the write deadline applied. With
// OnePort, the frame occupies the master's single send port (the gate) for
// the duration of the write — the core's concurrent dispatch goroutines
// then ship at most one outbound transfer at a time, while their
// workers keep computing.
func (m *Master) send(w int, op string, msg *Msg) error {
	l := m.link(w)
	if l == nil {
		return fmt.Errorf("net: %s to unknown worker %d: %w", op, w, engine.ErrWorkerDown)
	}
	if l.conn == nil {
		return fmt.Errorf("net: %s to worker %d (%s): link retired: %w", op, w, l.name, engine.ErrWorkerDown)
	}
	m.gate.Lock()
	defer m.gate.Unlock()
	l.conn.SetWriteDeadline(m.ioDeadline(m.opts.IOTimeout))
	if err := WriteMsg(l.wr, msg, &l.enc); err != nil {
		return m.down(w, op, err)
	}
	if err := l.wr.Flush(); err != nil {
		return m.down(w, op, err)
	}
	return nil
}

// SendC implements engine.Backend.
func (m *Master) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	return m.send(w, "send chunk", &Msg{Kind: MsgChunk, Chunk: ch, Blocks: blocks})
}

// SendAB implements engine.Backend: one install frame, digest-addressed with
// resident panels omitted when the job's cache epoch covers this worker.
func (m *Master) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	return m.sendInstall(w, ch, k0, k1, a, b, m.jobPanels())
}

// SendABRaw implements engine.RawSender: ship the installment with no panel
// refs even when a panel-cache epoch is open. Parity units carry pre-encoded
// payloads under borrowed chunk coordinates; addressing them by the job's
// panel digests would install encoded bytes under the real panels' identities
// on both sides of the link.
func (m *Master) SendABRaw(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	return m.sendInstall(w, ch, k0, k1, a, b, nil)
}

// RecvC implements engine.Backend: flush the worker and wait for its result,
// treating heartbeats as liveness that extends the wait.
func (m *Master) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	return m.recvC(w, ch, true)
}

// RecvCRaw implements engine.RawSender: RecvC without the panel-cache
// promotion — a parity unit's chunk coordinates are borrowed, so marking its
// panels resident would poison the master's residency view.
func (m *Master) RecvCRaw(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	return m.recvC(w, ch, false)
}

func (m *Master) recvC(w int, ch matrix.Chunk, promote bool) ([]*matrix.Block, error) {
	if err := m.send(w, "flush", &Msg{Kind: MsgFlush, Chunk: ch}); err != nil {
		return nil, err
	}
	l := m.link(w)
	wait := m.opts.IOTimeout
	if hb := 3 * l.heartbeat; hb > wait {
		wait = hb
	}
	// Once CancelUnit flags this unit, the owner (us) writes the cancel frame
	// — no other goroutine may touch the link's write side — then waits a
	// short grace for the worker's answer. A responsive worker either acks
	// (it dropped the chunk; the link stays at a frame boundary and survives)
	// or its result was already in flight (returned as a duplicate); a
	// stalled one answers nothing and the link is retired, which is how a
	// straggler is absorbed without serving out its heartbeat timeout.
	sentCancel := false
	var cancelBy time.Time
	for {
		if l.cancel.Load() && !sentCancel {
			if err := m.send(w, "cancel unit", &Msg{Kind: MsgCancel, Chunk: ch}); err != nil {
				l.cancel.Store(false)
				return nil, fmt.Errorf("%w; %w", engine.ErrUnitCanceled, err)
			}
			sentCancel = true
			// The grace is absolute: heartbeats come from the worker's beat
			// goroutine and prove the process lives, not that its consumer is
			// reading — they must not extend the handshake, or a stalled
			// worker's heartbeats would make the gate serve out the stall.
			cancelBy = time.Now().Add(cancelWait(l))
		}
		if sentCancel {
			l.conn.SetReadDeadline(cancelBy)
		} else {
			l.conn.SetReadDeadline(m.ioDeadline(wait))
		}
		msg, err := ReadMsg(l.rd, &l.dec)
		if err != nil {
			if sentCancel || l.cancel.Load() {
				// The worker never answered the cancel (or the shortened
				// deadline fired mid-frame): the stream cannot be trusted at a
				// boundary, so retire the link and surface the cancel.
				l.cancel.Store(false)
				return nil, fmt.Errorf("%w; %w", engine.ErrUnitCanceled, m.down(w, "cancel unit", err))
			}
			return nil, m.down(w, "receive result", err)
		}
		switch msg.Kind {
		case MsgHeartbeat:
			continue // still alive, keep waiting
		case MsgResult:
			if msg.Chunk != ch {
				return nil, fmt.Errorf("net: worker %d (%s) returned chunk %v, expected %v", w, l.name, msg.Chunk, ch)
			}
			// A result that raced the cancel frame is still a valid result;
			// the worker will ignore the stale cancel and the gate counts the
			// blocks as a duplicate win.
			l.cancel.Store(false)
			if promote {
				m.promote(w, l, ch)
			}
			return msg.Blocks, nil
		case MsgCancel:
			if !sentCancel {
				return nil, fmt.Errorf("net: worker %d (%s) sent unsolicited cancel ack", w, l.name)
			}
			l.cancel.Store(false)
			return nil, fmt.Errorf("net: unit %v on worker %d (%s) canceled: %w", ch, w, l.name, engine.ErrUnitCanceled)
		default:
			return nil, fmt.Errorf("net: worker %d (%s) sent %s while a result was due", w, l.name, msg.Kind)
		}
	}
}

// RunContext executes plan against the connected workers through the
// sequential oracle (engine.ExecuteContext): C ← C + A·B, ops strictly in plan
// order. It is the networked twin of engine.RunContext — same loop, same
// failover, different transport.
//
// Every blocking send and receive finishes by the earlier of ctx's deadline
// and IOTimeout, and cancelling ctx interrupts in-flight socket I/O
// immediately (the links are slammed with an already-expired deadline),
// failing the run with an error wrapping ctx.Err(). After an aborted run the
// worker sessions are tainted — discard them (Close / a failed-lease Return),
// do not pool them.
func (m *Master) RunContext(ctx context.Context, t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix) error {
	defer m.runContext(ctx)()
	return engine.ExecuteContext(ctx, t, plan, a, b, c, m)
}

// Execute executes plan through the concurrent core (engine.Dispatch): one
// dispatch goroutine per worker link, so every worker's socket stays fed
// while other workers compute or return results; with MasterOptions.OnePort
// the outbound frames are still serialized through the master's single send
// port. opts carries the core's policies. The zero value is the static
// pipelined run. opts.Elastic feeds the tracker's live estimates, re-plans
// dead workers' chunks and drifted assignments, and folds in workers joined
// mid-run with AddWorker (their indices delivered on Elastic.Join; their
// connections are interrupted by a cancellation too). opts.Redundancy runs
// the k-of-n gate: the first result of a chunk wins, laggards are
// wire-cancelled through CancelUnit's handshake, parity decode stands in for
// a straggler's missing result. C is bitwise-identical to RunContext's under
// every policy (short of a parity decode). Cancellation semantics match
// RunContext.
func (m *Master) Execute(ctx context.Context, t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, opts engine.Options) error {
	defer m.runContext(ctx)()
	return engine.Dispatch(ctx, t, plan, a, b, c, m, opts)
}

// RunPipelinedContext is Execute with zero options, nothing more. It survives
// only because the frozen benchmark (bench/) calls it by this name.
func (m *Master) RunPipelinedContext(ctx context.Context, t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix) error {
	return m.Execute(ctx, t, plan, a, b, c, engine.Options{})
}

// runBinding is one in-flight run's cancellation fan-out set: the
// connections to slam with an expired deadline when the run's context dies.
// AddWorker extends it mid-run; a connection added after the context already
// fired is slammed immediately, so a late joiner cannot outlive the abort.
type runBinding struct {
	mu    sync.Mutex
	conns []net.Conn
	fired bool
}

func (b *runBinding) add(c net.Conn) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fired {
		c.SetDeadline(time.Now())
		return
	}
	b.conns = append(b.conns, c)
}

func (b *runBinding) fire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fired = true
	for _, c := range b.conns {
		c.SetDeadline(time.Now())
	}
}

// runContext binds one run to ctx and returns the unbind function. While
// bound, ioDeadline clips blocking I/O to ctx's deadline, and a cancellation
// slams an already-expired deadline onto every connection live at bind time
// — a dispatch goroutine parked in a 30s RecvC wait wakes within
// milliseconds instead of timing out. The conn set is snapshotted before the
// executor spawns goroutines and extended under the binding's lock by
// AddWorker, so the interrupt never races the links' conn fields (a conn
// retired by down in the meantime just absorbs a harmless SetDeadline on a
// closed socket).
func (m *Master) runContext(ctx context.Context) (unbind func()) {
	b := &runBinding{}
	m.mu.Lock()
	m.runCtx = ctx
	m.run = b
	for _, l := range m.links {
		if l.conn != nil {
			b.conns = append(b.conns, l.conn)
		}
	}
	m.mu.Unlock()
	stop := context.AfterFunc(ctx, b.fire)
	return func() {
		stop()
		m.mu.Lock()
		m.runCtx = nil
		m.run = nil
		m.mu.Unlock()
	}
}

// Shutdown tells every live worker to end its session and closes all
// connections. The worker daemons keep serving: ServeConn ends a session on
// a shutdown frame exactly as on a release, and the serve loop accepts the
// next master. It is idempotent: a second call (or one after Release, Close,
// or Detach) finds no links and returns nil.
func (m *Master) Shutdown() error { return m.endSessions(MsgShutdown) }

// Release returns every live worker to its accept loop without killing the
// daemon: each gets a release frame and its connection is closed; the worker
// re-registers with the next master that dials. Idempotent, like Shutdown.
func (m *Master) Release() error { return m.endSessions(MsgRelease) }

// endSessions sends every live worker the session-ending frame, drains each
// link to EOF, and closes all connections; the first send error is returned.
func (m *Master) endSessions(kind MsgKind) error {
	var first error
	for w, l := range m.linkSnapshot() {
		if l.conn == nil {
			continue
		}
		if err := m.send(w, kind.String(), &Msg{Kind: kind}); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		drainToEOF(l)
	}
	m.Close()
	return first
}

// Close drops all connections without the shutdown handshake. The links stay
// with the master (marked retired), so Close after Detach touches nothing.
func (m *Master) Close() {
	for _, l := range m.linkSnapshot() {
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
}
