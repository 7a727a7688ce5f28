package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/trace"
)

// The client protocol is a small length-prefixed binary framing, separate
// from the worker wire protocol of internal/net: clients speak matrices
// (whole A/B/C operands), workers speak chunks and installments. Block
// payloads reuse the framed float64 codec of internal/matrix.
//
// One submission is one connection: the client ships A, B and C, the server
// answers with an accept frame carrying the job id (admission — the job may
// still queue behind others), then, when the job completes, a result frame
// carrying the updated C (or an error frame). A status connection sends one
// status frame and gets the service snapshot as JSON.

// clientKind labels client-protocol frames.
type clientKind uint8

const (
	cSubmit    clientKind = iota + 1 // client → server: R,S,T,Q + A,B,C blocks
	cAccept                          // server → client: job id (admitted to the queue)
	cResult                          // server → client: job id + updated C blocks
	cError                           // server → client: job id (0 = rejected) + message
	cStatus                          // client → server: snapshot request
	cStats                           // server → client: Stats as JSON
	cCancel                          // client → server: job id — cancel the submitted job
	cJoin                            // client → server: worker addr + spec — register with the fleet
	cSubmitD                         // client → server: cSubmit + the operands' panel digests
	cTrace                           // client → server: job id — fetch the job's recorded timeline
	cTraceData                       // server → client: job id + the timeline as JSON
	cSubmitC                         // client → server: cSubmitD + the job's SLO class (digest lists may be empty)
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
	case cSubmitD:
		return "submit-digest"
	case cTrace:
		return "trace"
	case cTraceData:
		return "trace-data"
	case cSubmitC:
		return "submit-class"
	default:
		return fmt.Sprintf("clientkind(%d)", uint8(k))
	}
}

const (
	clientMagic    = 0x4d4d5331 // "MMS1"
	maxClientFrame = 1 << 31    // 2 GiB: three operands of a large product
	maxErrLen      = 1 << 16
	maxStatsLen    = 1 << 24
)

// clientMsg is the single client-protocol envelope.
type clientMsg struct {
	Kind       clientKind
	R, S, T, Q int             // Submit
	ID         uint64          // Accept / Result / Error
	Blocks     []*matrix.Block // Submit: A then B then C; Result: C
	Err        string          // Error
	Stats      []byte          // Stats: JSON
	Addr       string          // Join: the worker's dialable address
	SpecC      float64         // Join: declared link cost c_i
	SpecW      float64         // Join: declared compute cost w_i
	SpecM      int             // Join: declared memory capacity m_i (blocks)
	Rows, Cols []cache.Digest  // SubmitD/SubmitC: A row-panel / B column-panel digests
	Class      JobClass        // SubmitC: the job's SLO class
}

// maxDigestList bounds one digest list of a submit-digest frame.
const maxDigestList = 1 << 22

// maxAddrLen bounds a join frame's address field.
const maxAddrLen = 1 << 10

func clientPayloadLen(m *clientMsg) (int, error) {
	blocksLen := func() int {
		n := 4
		for _, b := range m.Blocks {
			n += matrix.BlockWireSize(b.Q)
		}
		return n
	}
	switch m.Kind {
	case cSubmit:
		return 16 + blocksLen(), nil
	case cSubmitD, cSubmitC:
		if len(m.Rows) > maxDigestList || len(m.Cols) > maxDigestList {
			return 0, fmt.Errorf("serve: %s frame lists %d+%d digests", m.Kind, len(m.Rows), len(m.Cols))
		}
		n := 16 + 4 + cache.DigestLen*len(m.Rows) + 4 + cache.DigestLen*len(m.Cols) + blocksLen()
		if m.Kind == cSubmitC {
			n++ // the class byte between the dims and the digest lists
		}
		return n, nil
	case cAccept, cCancel, cTrace:
		return 8, nil
	case cTraceData:
		return 8 + 4 + len(m.Stats), nil
	case cResult:
		return 8 + blocksLen(), nil
	case cError:
		if len(m.Err) > maxErrLen {
			m.Err = m.Err[:maxErrLen]
		}
		return 8 + 4 + len(m.Err), nil
	case cStatus:
		return 0, nil
	case cStats:
		return 4 + len(m.Stats), nil
	case cJoin:
		if len(m.Addr) > maxAddrLen {
			return 0, fmt.Errorf("serve: join address %d bytes long", len(m.Addr))
		}
		return 4 + len(m.Addr) + 8 + 8 + 4, nil
	default:
		return 0, fmt.Errorf("serve: cannot encode client frame kind %d", m.Kind)
	}
}

// writeClientMsg writes one length-prefixed client frame, staging block
// payloads through bc (nil: one-shot codec).
func writeClientMsg(w io.Writer, m *clientMsg, bc *matrix.BlockCodec) error {
	if bc == nil {
		bc = &matrix.BlockCodec{}
	}
	n, err := clientPayloadLen(m)
	if err != nil {
		return err
	}
	if int64(n) > maxClientFrame {
		// Reject before writing anything: past this the uint32 length prefix
		// would wrap (or the reader would reject after a multi-GiB upload).
		return fmt.Errorf("serve: %s frame payload %d bytes exceeds the %d-byte frame limit", m.Kind, n, int64(maxClientFrame))
	}
	var hdr [mmnet.FrameHeaderLen]byte
	mmnet.PutFrameHeader(hdr[:], clientMagic, uint8(m.Kind), n)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("serve: write frame header: %w", err)
	}
	switch m.Kind {
	case cSubmit, cSubmitD, cSubmitC:
		var dims [16]byte
		binary.LittleEndian.PutUint32(dims[0:4], uint32(m.R))
		binary.LittleEndian.PutUint32(dims[4:8], uint32(m.S))
		binary.LittleEndian.PutUint32(dims[8:12], uint32(m.T))
		binary.LittleEndian.PutUint32(dims[12:16], uint32(m.Q))
		if _, err := w.Write(dims[:]); err != nil {
			return fmt.Errorf("serve: write submit dims: %w", err)
		}
		if m.Kind == cSubmitC {
			if _, err := w.Write([]byte{byte(m.Class)}); err != nil {
				return fmt.Errorf("serve: write submit class: %w", err)
			}
		}
		if m.Kind == cSubmitD || m.Kind == cSubmitC {
			for _, ds := range [][]cache.Digest{m.Rows, m.Cols} {
				var cnt [4]byte
				binary.LittleEndian.PutUint32(cnt[:], uint32(len(ds)))
				if _, err := w.Write(cnt[:]); err != nil {
					return err
				}
				for _, d := range ds {
					if _, err := w.Write(d[:]); err != nil {
						return err
					}
				}
			}
		}
		return bc.WriteBlocks(w, m.Blocks)
	case cAccept, cCancel, cTrace:
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], m.ID)
		_, err := w.Write(id[:])
		return err
	case cTraceData:
		var pre [12]byte
		binary.LittleEndian.PutUint64(pre[0:8], m.ID)
		binary.LittleEndian.PutUint32(pre[8:12], uint32(len(m.Stats)))
		if _, err := w.Write(pre[:]); err != nil {
			return err
		}
		_, err := w.Write(m.Stats)
		return err
	case cResult:
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], m.ID)
		if _, err := w.Write(id[:]); err != nil {
			return err
		}
		return bc.WriteBlocks(w, m.Blocks)
	case cError:
		var pre [12]byte
		binary.LittleEndian.PutUint64(pre[0:8], m.ID)
		binary.LittleEndian.PutUint32(pre[8:12], uint32(len(m.Err)))
		if _, err := w.Write(pre[:]); err != nil {
			return err
		}
		_, err := io.WriteString(w, m.Err)
		return err
	case cStatus:
		return nil
	case cStats:
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(m.Stats)))
		if _, err := w.Write(cnt[:]); err != nil {
			return err
		}
		_, err := w.Write(m.Stats)
		return err
	case cJoin:
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(m.Addr)))
		if _, err := w.Write(cnt[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, m.Addr); err != nil {
			return err
		}
		var spec [20]byte
		binary.LittleEndian.PutUint64(spec[0:8], math.Float64bits(m.SpecC))
		binary.LittleEndian.PutUint64(spec[8:16], math.Float64bits(m.SpecW))
		binary.LittleEndian.PutUint32(spec[16:20], uint32(m.SpecM))
		_, err := w.Write(spec[:])
		return err
	}
	return nil
}

// readClientMsg reads one client frame, decoding blocks through bc.
func readClientMsg(r io.Reader, bc *matrix.BlockCodec) (*clientMsg, error) {
	if bc == nil {
		bc = &matrix.BlockCodec{}
	}
	var hdr [mmnet.FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("serve: read frame header: %w", err)
	}
	rawKind, rawLen, err := mmnet.ParseFrameHeader(hdr[:], clientMagic)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	kind := clientKind(rawKind)
	n := int64(rawLen)
	if n > maxClientFrame {
		return nil, fmt.Errorf("serve: implausible client frame payload %d bytes", n)
	}
	buf := &io.LimitedReader{R: r, N: n}

	m := &clientMsg{Kind: kind}
	switch kind {
	case cSubmit, cSubmitD, cSubmitC:
		var dims [16]byte
		if _, err = io.ReadFull(buf, dims[:]); err != nil {
			break
		}
		m.R = int(int32(binary.LittleEndian.Uint32(dims[0:4])))
		m.S = int(int32(binary.LittleEndian.Uint32(dims[4:8])))
		m.T = int(int32(binary.LittleEndian.Uint32(dims[8:12])))
		m.Q = int(int32(binary.LittleEndian.Uint32(dims[12:16])))
		if kind == cSubmitC {
			var cls [1]byte
			if _, err = io.ReadFull(buf, cls[:]); err != nil {
				break
			}
			m.Class = JobClass(cls[0])
		}
		if kind == cSubmitD || kind == cSubmitC {
			lists := [2]*[]cache.Digest{&m.Rows, &m.Cols}
			for _, dst := range lists {
				var cnt [4]byte
				if _, err = io.ReadFull(buf, cnt[:]); err != nil {
					break
				}
				n := int(binary.LittleEndian.Uint32(cnt[:]))
				if n > maxDigestList {
					return nil, fmt.Errorf("serve: submit-digest frame lists %d digests", n)
				}
				ds := make([]cache.Digest, n)
				for i := range ds {
					if _, err = io.ReadFull(buf, ds[i][:]); err != nil {
						break
					}
				}
				if err != nil {
					break
				}
				*dst = ds
			}
			if err != nil {
				break
			}
		}
		m.Blocks, err = bc.ReadBlocks(buf)
	case cAccept, cCancel, cTrace:
		var id [8]byte
		if _, err = io.ReadFull(buf, id[:]); err != nil {
			break
		}
		m.ID = binary.LittleEndian.Uint64(id[:])
	case cTraceData:
		var pre [12]byte
		if _, err = io.ReadFull(buf, pre[:]); err != nil {
			break
		}
		m.ID = binary.LittleEndian.Uint64(pre[0:8])
		traceLen := int(binary.LittleEndian.Uint32(pre[8:12]))
		if traceLen > maxStatsLen {
			return nil, fmt.Errorf("serve: trace payload %d bytes long", traceLen)
		}
		m.Stats = make([]byte, traceLen)
		_, err = io.ReadFull(buf, m.Stats)
	case cResult:
		var id [8]byte
		if _, err = io.ReadFull(buf, id[:]); err != nil {
			break
		}
		m.ID = binary.LittleEndian.Uint64(id[:])
		m.Blocks, err = bc.ReadBlocks(buf)
	case cError:
		var pre [12]byte
		if _, err = io.ReadFull(buf, pre[:]); err != nil {
			break
		}
		m.ID = binary.LittleEndian.Uint64(pre[0:8])
		msgLen := int(binary.LittleEndian.Uint32(pre[8:12]))
		if msgLen > maxErrLen {
			return nil, fmt.Errorf("serve: error message %d bytes long", msgLen)
		}
		text := make([]byte, msgLen)
		if _, err = io.ReadFull(buf, text); err != nil {
			break
		}
		m.Err = string(text)
	case cStatus:
		// empty payload
	case cStats:
		var cnt [4]byte
		if _, err = io.ReadFull(buf, cnt[:]); err != nil {
			break
		}
		statsLen := int(binary.LittleEndian.Uint32(cnt[:]))
		if statsLen > maxStatsLen {
			return nil, fmt.Errorf("serve: stats payload %d bytes long", statsLen)
		}
		m.Stats = make([]byte, statsLen)
		_, err = io.ReadFull(buf, m.Stats)
	case cJoin:
		var cnt [4]byte
		if _, err = io.ReadFull(buf, cnt[:]); err != nil {
			break
		}
		addrLen := int(binary.LittleEndian.Uint32(cnt[:]))
		if addrLen > maxAddrLen {
			return nil, fmt.Errorf("serve: join address %d bytes long", addrLen)
		}
		addr := make([]byte, addrLen)
		if _, err = io.ReadFull(buf, addr); err != nil {
			break
		}
		m.Addr = string(addr)
		var spec [20]byte
		if _, err = io.ReadFull(buf, spec[:]); err != nil {
			break
		}
		m.SpecC = math.Float64frombits(binary.LittleEndian.Uint64(spec[0:8]))
		m.SpecW = math.Float64frombits(binary.LittleEndian.Uint64(spec[8:16]))
		m.SpecM = int(int32(binary.LittleEndian.Uint32(spec[16:20])))
	default:
		return nil, fmt.Errorf("serve: unknown client frame kind %d", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: decode %s: %w", kind, err)
	}
	if buf.N != 0 {
		return nil, fmt.Errorf("serve: %s frame has %d trailing bytes", kind, buf.N)
	}
	return m, nil
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
	rd := bufio.NewReaderSize(conn, 1<<16)
	wr := bufio.NewWriterSize(conn, 1<<16)
	var codec matrix.BlockCodec

	reply := func(m *clientMsg) error {
		if err := writeClientMsg(wr, m, &codec); err != nil {
			return err
		}
		return wr.Flush()
	}
	fail := func(id uint64, err error) {
		reply(&clientMsg{Kind: cError, ID: id, Err: err.Error()})
	}

	msg, err := readClientMsg(rd, &codec)
	if err != nil {
		s.log.Warn("client request failed", "client", conn.RemoteAddr().String(), "err", err)
		return
	}
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

	case cSubmit, cSubmitD, cSubmitC:
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
		// The client computed the operands' panel digests already (an
		// installed operand resubmitted): skip re-hashing server-side. A
		// submit-class frame carries the digest lists too, but empty lists
		// mean "none" (every real operand has ≥ 1 row and column panel).
		var jp *cache.JobPanels
		if msg.Kind == cSubmitD || (msg.Kind == cSubmitC && len(msg.Rows)+len(msg.Cols) > 0) {
			jp = &cache.JobPanels{T: msg.T, Q: msg.Q, ARows: msg.Rows, BCols: msg.Cols}
		}
		id, err := s.SubmitClass(a, b, c, jp, msg.Class)
		if err != nil {
			fail(0, err)
			return
		}
		if err := reply(&clientMsg{Kind: cAccept, ID: id}); err != nil {
			return // client gone; the job still runs
		}
		// While the job queues or runs, keep reading the connection for a
		// cancel frame (the submit goroutine wrote its last frame already, so
		// this reader owns rd). A cancel for the accepted job cancels it
		// server-side; a vanished client merely ends the reader — its job
		// keeps running, exactly as before the cancel frame existed.
		go func() {
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

// SubmitProductContext is the client side of one submission: it ships A, B
// and C to the daemon at addr, waits for the job to run, and returns the
// updated C and the job id. The dial, the upload, and the wait for the result
// are all bounded by ctx's deadline — there is no hidden fixed dial budget
// that can outlive the caller's (no deadline: the job may legitimately queue
// for a while). If ctx
// is cancelled while the job queues or runs, a cancel frame is sent so the
// daemon dequeues or aborts the job (other jobs keep their leases), and the
// returned error wraps ctx's error.
func SubmitProductContext(ctx context.Context, addr string, a, b, c *matrix.BlockMatrix) (*matrix.BlockMatrix, uint64, error) {
	return submitProduct(ctx, addr, a, b, c, nil, ClassStandard)
}

// SubmitProductPanels is SubmitProductContext carrying the operands' panel
// digests alongside the blocks, so a caching daemon can route the job by
// operand affinity and skip worker transfers without re-hashing A and B. jp
// must describe exactly these operands (see cache.PanelsForJob; the matmul
// facade's Operand handles memoize it); nil degrades to a plain submission.
// A non-caching daemon ignores the digests.
func SubmitProductPanels(ctx context.Context, addr string, a, b, c *matrix.BlockMatrix, jp *cache.JobPanels) (*matrix.BlockMatrix, uint64, error) {
	return submitProduct(ctx, addr, a, b, c, jp, ClassStandard)
}

// SubmitProductClass is SubmitProductPanels with an explicit SLO class: the
// daemon's priority queue policy orders dispatch by it and admission control
// buckets by it (see Config.QueuePolicy). jp may be nil. A standard-class
// submission stays on the pre-class frames, so old daemons keep working;
// declaring another class needs a daemon that understands the class frame.
func SubmitProductClass(ctx context.Context, addr string, a, b, c *matrix.BlockMatrix, jp *cache.JobPanels, class JobClass) (*matrix.BlockMatrix, uint64, error) {
	return submitProduct(ctx, addr, a, b, c, jp, class)
}

func submitProduct(ctx context.Context, addr string, a, b, c *matrix.BlockMatrix, jp *cache.JobPanels, class JobClass) (*matrix.BlockMatrix, uint64, error) {
	if a == nil || b == nil || c == nil {
		return nil, 0, fmt.Errorf("serve: submit needs A, B and C")
	}
	conn, err := dialClient(ctx, addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	rd := bufio.NewReaderSize(conn, 1<<16)
	wr := bufio.NewWriterSize(conn, 1<<16)
	var codec matrix.BlockCodec

	// Until the daemon accepts the job there is nothing to cancel — a ctx
	// that dies during the upload or the ack wait just slams the connection,
	// so a deadline-less submission is still interruptible mid-upload.
	stopEarly := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })

	blocks := make([]*matrix.Block, 0, a.Rows*a.Cols+b.Rows*b.Cols+c.Rows*c.Cols)
	blocks = append(blocks, flattenMatrix(a)...)
	blocks = append(blocks, flattenMatrix(b)...)
	blocks = append(blocks, flattenMatrix(c)...)
	sub := &clientMsg{Kind: cSubmit, R: c.Rows, S: c.Cols, T: a.Cols, Q: a.Q, Blocks: blocks}
	if jp != nil {
		sub.Kind, sub.Rows, sub.Cols = cSubmitD, jp.ARows, jp.BCols
	}
	if class != ClassStandard {
		sub.Kind, sub.Class = cSubmitC, class
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
	stop := context.AfterFunc(ctx, func() {
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
	defer stop()

	res, err := readClientMsg(rd, &codec)
	if err != nil {
		return nil, ack.ID, clientErr(ctx, err)
	}
	switch res.Kind {
	case cResult:
		out, err := matrixFromBlocks(c.Rows, c.Cols, c.Q, res.Blocks)
		if err != nil {
			return nil, res.ID, err
		}
		return out, res.ID, nil
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
	conn, err := dialClient(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	if err := writeClientMsg(conn, &clientMsg{Kind: cStatus}, nil); err != nil {
		return nil, clientErr(ctx, err)
	}
	msg, err := readClientMsg(bufio.NewReaderSize(conn, 1<<16), nil)
	if err != nil {
		return nil, clientErr(ctx, err)
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
	conn, err := dialClient(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	if err := writeClientMsg(conn, &clientMsg{Kind: cTrace, ID: id}, nil); err != nil {
		return nil, clientErr(ctx, err)
	}
	msg, err := readClientMsg(bufio.NewReaderSize(conn, 1<<16), nil)
	if err != nil {
		return nil, clientErr(ctx, err)
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
	conn, err := dialClient(ctx, addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	join := &clientMsg{Kind: cJoin, Addr: workerAddr, SpecC: spec.C, SpecW: spec.W, SpecM: spec.M}
	if err := writeClientMsg(conn, join, nil); err != nil {
		return 0, clientErr(ctx, err)
	}
	msg, err := readClientMsg(bufio.NewReaderSize(conn, 1<<16), nil)
	if err != nil {
		return 0, clientErr(ctx, err)
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
