package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The client protocol is a small length-prefixed binary framing, separate
// from the worker wire protocol of internal/net: clients speak matrices
// (whole A/B/C operands), workers speak chunks and installments. The frame
// mechanics are internal/wire's; this file describes each frame kind's fields
// once (clientMsg.fields), and block payloads reuse the framed float64 codec
// of internal/matrix. A peer of another protocol version is refused at its
// first frame header.
//
// One submission is one connection: the client ships A, B and C, the server
// answers with an accept frame carrying the job id (admission — the job may
// still queue behind others), then, when the job completes, a result frame
// carrying the updated C (or an error frame). A status connection sends one
// status frame and gets the service snapshot as JSON.
//
// Block ownership: the daemon draws a submit frame's blocks from
// matrix.SharedPool and returns them when the connection's handler ends — for
// an admitted job, after Wait. The client writes the submit frame from the
// caller's matrices and decodes the result in place, into the caller's C.

// clientKind labels client-protocol frames.
type clientKind uint8

const (
	cSubmit    clientKind = iota + 1 // client → server: dims, class, panel digests (may be empty) + A,B,C blocks
	cAccept                          // server → client: job id (admitted to the queue)
	cResult                          // server → client: job id + updated C blocks
	cError                           // server → client: job id (0 = rejected) + message
	cStatus                          // client → server: snapshot request
	cStats                           // server → client: Stats as JSON
	cCancel                          // client → server: job id — cancel the submitted job
	cJoin                            // client → server: worker addr + spec — register with the fleet
	cTrace                           // client → server: job id — fetch the job's recorded timeline
	cTraceData                       // server → client: job id + the timeline as JSON
)

func (k clientKind) String() string {
	switch k {
	case cSubmit:
		return "submit"
	case cAccept:
		return "accept"
	case cResult:
		return "result"
	case cError:
		return "error"
	case cStatus:
		return "status"
	case cStats:
		return "stats"
	case cCancel:
		return "cancel"
	case cJoin:
		return "join"
	case cTrace:
		return "trace"
	case cTraceData:
		return "trace-data"
	default:
		return fmt.Sprintf("clientkind(%d)", uint8(k))
	}
}

// Per-field caps, enforced by the writer and the reader alike.
const (
	maxErrLen     = 1 << 16
	maxStatsLen   = 1 << 24
	maxDigestList = 1 << 22 // one digest list of a submit frame
	maxAddrLen    = 1 << 10 // a join frame's address
)

// clientProto frames the client protocol: "MMS" version 2, payloads up to
// 2 GiB — three operands of a large product.
var clientProto = wire.Proto{Name: "serve", Magic: 0x4d4d5332, Max: 1 << 31}

// clientMsg is the single client-protocol envelope.
type clientMsg struct {
	Kind       clientKind
	R, S, T, Q int             // Submit
	Class      JobClass        // Submit: the job's SLO class
	Rows, Cols []cache.Digest  // Submit: A row-panel / B column-panel digests; both empty = the server hashes
	ID         uint64          // Accept / Result / Error / Cancel / Trace / TraceData
	Blocks     []*matrix.Block // Submit: A then B then C; Result: C
	Err        string          // Error
	Stats      []byte          // Stats / TraceData: JSON
	Addr       string          // Join: the worker's dialable address
	SpecC      float64         // Join: declared link cost c_i
	SpecW      float64         // Join: declared compute cost w_i
	SpecM      int             // Join: declared memory capacity m_i (blocks)
}

// fields is the one description of every client frame kind's layout: sizing,
// encoding and decoding are all this walk.
func (m *clientMsg) fields(c *wire.Codec) {
	switch m.Kind {
	case cSubmit:
		c.I32(&m.R)
		c.I32(&m.S)
		c.I32(&m.T)
		c.I32(&m.Q)
		c.U8((*uint8)(&m.Class))
		c.Digests(&m.Rows, maxDigestList)
		c.Digests(&m.Cols, maxDigestList)
		c.Blocks(&m.Blocks)
	case cAccept, cCancel, cTrace:
		c.U64(&m.ID)
	case cTraceData:
		c.U64(&m.ID)
		c.Bytes(&m.Stats, maxStatsLen)
	case cResult:
		c.U64(&m.ID)
		c.Blocks(&m.Blocks)
	case cError:
		c.U64(&m.ID)
		c.String(&m.Err, maxErrLen)
	case cStatus:
		// empty payload
	case cStats:
		c.Bytes(&m.Stats, maxStatsLen)
	case cJoin:
		c.String(&m.Addr, maxAddrLen)
		c.F64(&m.SpecC)
		c.F64(&m.SpecW)
		c.I32(&m.SpecM)
	default:
		c.Fail(fmt.Errorf("unknown client frame kind %d", m.Kind))
	}
}

// writeClientMsg writes one length-prefixed client frame, staging block
// payloads through bc (nil: one-shot codec).
func writeClientMsg(w io.Writer, m *clientMsg, bc *matrix.BlockCodec) error {
	return clientProto.Write(w, uint8(m.Kind), bc, m.fields)
}

// readClientMsg reads one client frame, decoding blocks through bc.
func readClientMsg(r io.Reader, bc *matrix.BlockCodec) (*clientMsg, error) {
	m := &clientMsg{}
	return m, readClientMsgInto(r, bc, m)
}

// readClientMsgInto reads one client frame into m. Blocks already in m are
// the destination a block-carrying frame decodes into, in place (see
// wire.Codec.Blocks); every other field is overwritten.
func readClientMsgInto(r io.Reader, bc *matrix.BlockCodec, m *clientMsg) error {
	kind, c, err := clientProto.Begin(r, bc)
	if err != nil {
		return err
	}
	m.Kind = clientKind(kind)
	m.fields(c)
	if err := c.End(); err != nil {
		return fmt.Errorf("serve: decode %s: %w", m.Kind, err)
	}
	return nil
}

// flattenMatrix lists a matrix's blocks in row-major order, materializing
// lazily-allocated zero blocks so counts stay exact on the wire.
func flattenMatrix(m *matrix.BlockMatrix) []*matrix.Block {
	out := make([]*matrix.Block, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out = append(out, m.Block(i, j))
		}
	}
	return out
}

// matrixFromBlocks rebuilds an r×c blocked matrix from a row-major list.
func matrixFromBlocks(r, c, q int, blocks []*matrix.Block) (*matrix.BlockMatrix, error) {
	if len(blocks) != r*c {
		return nil, fmt.Errorf("serve: %d blocks for a %dx%d matrix", len(blocks), r, c)
	}
	m := matrix.NewBlockMatrix(r, c, q)
	for idx, b := range blocks {
		if b == nil || b.Q != q {
			return nil, fmt.Errorf("serve: block %d has edge mismatch", idx)
		}
		m.SetBlock(idx/c, idx%c, b)
	}
	return m, nil
}

// linkBuf is the size of each direction's buffer on a client connection.
const linkBuf = 1 << 16

// A submission is a connection of its own, so both ends take its two buffers
// from these pools and not from the allocator. A buffer goes back only once
// nothing can touch it again: two goroutines outlive the function that took
// theirs (the daemon's cancel reader, the client's cancel writer).
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, linkBuf) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, linkBuf) }}
)

func getReader(conn net.Conn) *bufio.Reader {
	rd := readerPool.Get().(*bufio.Reader)
	rd.Reset(conn)
	return rd
}

func putReader(rd *bufio.Reader) {
	rd.Reset(nil)
	readerPool.Put(rd)
}

func getWriter(conn net.Conn) *bufio.Writer {
	wr := writerPool.Get().(*bufio.Writer)
	wr.Reset(conn)
	return wr
}

func putWriter(wr *bufio.Writer) {
	wr.Reset(nil)
	writerPool.Put(wr)
}

// ListenAndServe accepts client connections until the listener closes: each
// submission is admitted to the queue and answered with its updated C when
// its turn has run; status requests get the JSON snapshot. One goroutine per
// client — concurrent submissions are exactly how the service gets
// concurrent jobs.
func (s *Server) ListenAndServe(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			s.log.Warn("client accept failed", "err", err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		go s.handleClient(conn)
	}
}

// handleClient runs one client connection to completion.
func (s *Server) handleClient(conn net.Conn) {
	defer conn.Close()
	rd, wr := getReader(conn), getWriter(conn)
	defer putWriter(wr)
	rdMine := true // until a submission's cancel reader takes rd over
	defer func() {
		if rdMine {
			putReader(rd)
		}
	}()
	codec := matrix.BlockCodec{Pool: &matrix.SharedPool}

	reply := func(m *clientMsg) error {
		if err := writeClientMsg(wr, m, &codec); err != nil {
			return err
		}
		return wr.Flush()
	}
	fail := func(id uint64, err error) {
		text := err.Error()
		if len(text) > maxErrLen {
			text = text[:maxErrLen]
		}
		reply(&clientMsg{Kind: cError, ID: id, Err: text})
	}

	msg, err := readClientMsg(rd, &codec)
	if err != nil {
		s.log.Warn("client request failed", "client", conn.RemoteAddr().String(), "err", err)
		return
	}
	// The frame's blocks go back to the pool when this handler returns. For a
	// submission that is after Wait — dispatch goroutines joined, lease back
	// with the fleet, so nothing can still reach A, B or C — and after the
	// reply, which reads C, is flushed.
	defer matrix.SharedPool.PutAll(msg.Blocks)
	switch msg.Kind {
	case cStatus:
		body, err := json.Marshal(s.Status())
		if err != nil {
			fail(0, err)
			return
		}
		reply(&clientMsg{Kind: cStats, Stats: body})

	case cTrace:
		tr, err := s.JobTrace(msg.ID)
		if err != nil {
			fail(msg.ID, err)
			return
		}
		body, err := json.Marshal(tr)
		if err != nil {
			fail(msg.ID, err)
			return
		}
		reply(&clientMsg{Kind: cTraceData, ID: msg.ID, Stats: body})

	case cJoin:
		// A worker daemon (mmworker -join) announcing itself to the fleet
		// after startup: register, and answer with its fleet index. Queued
		// jobs can lease it immediately; an adaptive server may also attach
		// it to a lease already running.
		i, err := s.AddWorker(msg.Addr, platform.Worker{Name: msg.Addr, C: msg.SpecC, W: msg.SpecW, M: msg.SpecM})
		if err != nil {
			fail(0, err)
			return
		}
		reply(&clientMsg{Kind: cAccept, ID: uint64(i)})

	case cSubmit:
		nA, nB, nC := msg.R*msg.T, msg.T*msg.S, msg.R*msg.S
		if msg.R <= 0 || msg.S <= 0 || msg.T <= 0 || msg.Q <= 0 || len(msg.Blocks) != nA+nB+nC {
			fail(0, fmt.Errorf("serve: submit carries %d blocks for r=%d s=%d t=%d", len(msg.Blocks), msg.R, msg.S, msg.T))
			return
		}
		a, err := matrixFromBlocks(msg.R, msg.T, msg.Q, msg.Blocks[:nA])
		if err != nil {
			fail(0, err)
			return
		}
		b, err := matrixFromBlocks(msg.T, msg.S, msg.Q, msg.Blocks[nA:nA+nB])
		if err != nil {
			fail(0, err)
			return
		}
		c, err := matrixFromBlocks(msg.R, msg.S, msg.Q, msg.Blocks[nA+nB:])
		if err != nil {
			fail(0, err)
			return
		}
		// Digest lists on the frame mean the client computed the operands'
		// panel digests already (an installed operand resubmitted): skip
		// re-hashing server-side. Empty lists mean "none" — every real
		// operand has ≥ 1 row and column panel.
		var jp *cache.JobPanels
		if len(msg.Rows)+len(msg.Cols) > 0 {
			jp = &cache.JobPanels{T: msg.T, Q: msg.Q, ARows: msg.Rows, BCols: msg.Cols}
		}
		id, err := s.SubmitClass(a, b, c, jp, msg.Class)
		if err != nil {
			fail(0, err)
			return
		}
		if err := reply(&clientMsg{Kind: cAccept, ID: id}); err != nil {
			s.Wait(id) // client gone; the job still runs, and owns the blocks until it ends
			return
		}
		// While the job queues or runs, keep reading the connection for a
		// cancel frame (the submit goroutine wrote its last frame already, so
		// this reader owns rd, and returns it when the connection closes). A
		// cancel for the accepted job cancels it server-side; a vanished
		// client merely ends the reader — its job keeps running, exactly as
		// before the cancel frame existed.
		rdMine = false
		go func() {
			defer putReader(rd)
			var rdCodec matrix.BlockCodec
			for {
				msg, err := readClientMsg(rd, &rdCodec)
				if err != nil {
					return
				}
				if msg.Kind == cCancel && msg.ID == id {
					s.Cancel(id)
				}
			}
		}()
		if err := s.Wait(id); err != nil {
			fail(id, err)
			return
		}
		reply(&clientMsg{Kind: cResult, ID: id, Blocks: flattenMatrix(c)})

	default:
		fail(0, fmt.Errorf("serve: unexpected %s frame from client", msg.Kind))
	}
}

// cancelGrace bounds how long a cancelled submission waits for the daemon to
// acknowledge the cancel frame with an error frame before abandoning the
// connection.
const cancelGrace = 10 * time.Second

// SubmitProduct is the client side of one submission: it ships A, B and C to
// the daemon at addr, waits for the job to run, and returns c — the result
// frame is decoded straight into its blocks — and the job id. A failure before
// the result frame arrives leaves c untouched, one while it is being read
// leaves c partially overwritten. The dial, the upload, and the wait for the result are all
// bounded by ctx's deadline — there is no hidden fixed dial budget that can
// outlive the caller's (no deadline: the job may legitimately queue for a
// while). If ctx is cancelled while the job queues or runs, a cancel frame is
// sent so the daemon dequeues or aborts the job (other jobs keep their
// leases), and the returned error wraps ctx's error.
//
// jp, when non-nil, carries the operands' panel digests alongside the blocks,
// so a caching daemon can route the job by operand affinity and skip worker
// transfers without re-hashing A and B. It must describe exactly these
// operands (see cache.PanelsForJob; the matmul facade's Operand handles
// memoize it); a non-caching daemon ignores the digests. class is the job's
// SLO class: the daemon's priority queue policy orders dispatch by it and
// admission control buckets by it (see Config.QueuePolicy).
func SubmitProduct(ctx context.Context, addr string, a, b, c *matrix.BlockMatrix, jp *cache.JobPanels, class JobClass) (*matrix.BlockMatrix, uint64, error) {
	if a == nil || b == nil || c == nil {
		return nil, 0, fmt.Errorf("serve: submit needs A, B and C")
	}
	conn, err := dialClient(ctx, addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	rd, wr := getReader(conn), getWriter(conn)
	// stop disarms the cancel path once the job is accepted. If it reports
	// that the path already fired, its goroutine may still be writing: wr is
	// left to the garbage collector.
	var stop func() bool
	defer func() {
		putReader(rd)
		if stop == nil || stop() {
			putWriter(wr)
		}
	}()
	var codec matrix.BlockCodec

	// Until the daemon accepts the job there is nothing to cancel — a ctx
	// that dies during the upload or the ack wait just slams the connection,
	// so a deadline-less submission is still interruptible mid-upload.
	stopEarly := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })

	cBlocks := flattenMatrix(c)
	blocks := make([]*matrix.Block, 0, a.Rows*a.Cols+b.Rows*b.Cols+len(cBlocks))
	blocks = append(blocks, flattenMatrix(a)...)
	blocks = append(blocks, flattenMatrix(b)...)
	blocks = append(blocks, cBlocks...)
	sub := &clientMsg{Kind: cSubmit, R: c.Rows, S: c.Cols, T: a.Cols, Q: a.Q, Class: class, Blocks: blocks}
	if jp != nil {
		sub.Rows, sub.Cols = jp.ARows, jp.BCols
	}
	err = writeClientMsg(wr, sub, &codec)
	if err == nil {
		err = wr.Flush()
	}
	if err != nil {
		stopEarly()
		return nil, 0, clientErr(ctx, err)
	}

	ack, err := readClientMsg(rd, &codec)
	stopEarly()
	if err != nil {
		return nil, 0, clientErr(ctx, err)
	}
	if ack.Kind == cError {
		return nil, ack.ID, fmt.Errorf("serve: daemon rejected the job: %s", ack.Err)
	}
	if ack.Kind != cAccept {
		return nil, 0, fmt.Errorf("serve: got %s frame, want accept", ack.Kind)
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The early watcher may already have fired (poisoning the conn's
		// deadlines); re-check before arming the cancel path so the job is
		// cancelled daemon-side (best-effort) rather than silently abandoned.
		conn.SetWriteDeadline(time.Now().Add(cancelGrace))
		writeClientMsg(wr, &clientMsg{Kind: cCancel, ID: ack.ID}, nil)
		wr.Flush()
		return nil, ack.ID, fmt.Errorf("serve: submission ended: %w", ctxErr)
	}

	// Job accepted: arm the cancel path. The submit goroutine wrote its last
	// frame above, so the AfterFunc owns the writer; it asks the daemon to
	// cancel the job, then bounds the remaining read so a wedged daemon
	// cannot hold a cancelled caller hostage. An expired deadline grants no
	// grace: the caller's budget bounds the whole exchange, so the read is
	// failed immediately and only an explicit cancel waits for the daemon's
	// acknowledgement.
	var cancelCodec matrix.BlockCodec
	stop = context.AfterFunc(ctx, func() {
		conn.SetWriteDeadline(time.Now().Add(cancelGrace))
		if err := writeClientMsg(wr, &clientMsg{Kind: cCancel, ID: ack.ID}, &cancelCodec); err == nil {
			wr.Flush()
		}
		if errors.Is(ctx.Err(), context.Canceled) {
			conn.SetReadDeadline(time.Now().Add(cancelGrace))
		} else {
			conn.SetReadDeadline(time.Now())
		}
	})

	res := &clientMsg{Blocks: cBlocks}
	if err := readClientMsgInto(rd, &codec, res); err != nil {
		return nil, ack.ID, clientErr(ctx, err)
	}
	switch res.Kind {
	case cResult:
		return c, res.ID, nil
	case cError:
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, res.ID, fmt.Errorf("serve: job %d canceled: %w (daemon: %s)", res.ID, ctxErr, res.Err)
		}
		return nil, res.ID, fmt.Errorf("serve: job %d failed: %s", res.ID, res.Err)
	default:
		return nil, ack.ID, fmt.Errorf("serve: got %s frame, want result", res.Kind)
	}
}

// dialClient connects to the daemon with the dial bounded by ctx (falling
// back to a 10s cap for deadline-less contexts, so a dead address cannot
// hang an unbounded submission forever).
func dialClient(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	return conn, nil
}

// clientErr maps a connection error observed after ctx ended to the context
// error (the deadline slam or daemon hang-up it provoked is detail, not the
// story).
func clientErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("serve: submission ended: %w (connection: %v)", ctxErr, err)
	}
	return err
}

// request runs one request/reply exchange with the daemon at addr on a
// connection of its own; cancelling ctx interrupts it even when ctx carries
// no deadline.
func request(ctx context.Context, addr string, req *clientMsg) (*clientMsg, error) {
	conn, err := dialClient(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	if err := writeClientMsg(conn, req, nil); err != nil {
		return nil, clientErr(ctx, err)
	}
	msg, err := readClientMsg(bufio.NewReaderSize(conn, linkBuf), nil)
	if err != nil {
		return nil, clientErr(ctx, err)
	}
	return msg, nil
}

// FetchStats asks the daemon at addr for its service snapshot. timeout
// bounds the whole exchange, dial included.
func FetchStats(addr string, timeout time.Duration) (*Stats, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return FetchStatsContext(ctx, addr)
}

// FetchStatsContext is FetchStats under a context: cancelling ctx
// interrupts the exchange even when ctx carries no deadline.
func FetchStatsContext(ctx context.Context, addr string) (*Stats, error) {
	msg, err := request(ctx, addr, &clientMsg{Kind: cStatus})
	if err != nil {
		return nil, err
	}
	if msg.Kind != cStats {
		return nil, fmt.Errorf("serve: got %s frame, want stats", msg.Kind)
	}
	var st Stats
	if err := json.Unmarshal(msg.Stats, &st); err != nil {
		return nil, fmt.Errorf("serve: decode stats: %w", err)
	}
	return &st, nil
}

// FetchTraceContext asks the daemon at addr for job id's recorded timeline —
// available once the job's lease has ended (the daemon records every lease;
// its -trace-dir flag only controls on-disk export). The matmul facade's
// Remote jobs resolve Trace() through this.
func FetchTraceContext(ctx context.Context, addr string, id uint64) (*trace.Trace, error) {
	msg, err := request(ctx, addr, &clientMsg{Kind: cTrace, ID: id})
	if err != nil {
		return nil, err
	}
	switch msg.Kind {
	case cTraceData:
		var tr trace.Trace
		if err := json.Unmarshal(msg.Stats, &tr); err != nil {
			return nil, fmt.Errorf("serve: decode trace: %w", err)
		}
		return &tr, nil
	case cError:
		return nil, fmt.Errorf("serve: trace fetch rejected: %s", msg.Err)
	default:
		return nil, fmt.Errorf("serve: got %s frame, want trace-data", msg.Kind)
	}
}

// JoinFleet announces a worker daemon to the scheduling daemon at addr:
// workerAddr is registered with the fleet under the given declared spec and
// becomes leasable immediately (on an adaptive daemon, possibly attached to
// a job already running). Returns the worker's fleet index. This is the
// client side of mmworker -join — worker-initiated registration, the elastic
// complement of the fleet the daemon dialed at startup.
func JoinFleet(ctx context.Context, addr, workerAddr string, spec platform.Worker) (int, error) {
	msg, err := request(ctx, addr, &clientMsg{Kind: cJoin, Addr: workerAddr, SpecC: spec.C, SpecW: spec.W, SpecM: spec.M})
	if err != nil {
		return 0, err
	}
	switch msg.Kind {
	case cAccept:
		return int(msg.ID), nil
	case cError:
		return 0, fmt.Errorf("serve: join rejected: %s", msg.Err)
	default:
		return 0, fmt.Errorf("serve: got %s frame, want accept", msg.Kind)
	}
}
