// Package net is the distributed master-worker runtime: a master process
// drives worker processes (possibly on other machines) over TCP, replaying
// the same sim.Plan the in-process engine executes. It plays the role MPI
// plays in the paper's experiments, with the one-port model arising
// naturally: the master issues one blocking transfer at a time, while each
// worker computes in its own process and the socket buffers provide the
// input double-buffering of the optimized memory layout.
//
// Plan execution — buffer accounting, operation ordering, C-accumulation,
// failover — lives in internal/engine (Execute); this package only supplies
// the engine.Backend that moves blocks over sockets and the worker loop that
// applies them, so the loopback path is a strict correctness oracle:
// distributed C is bitwise-equal to in-process C.
//
// The wire format is length-prefixed binary frames: internal/wire owns the
// header, the payload cap and the bounded field primitives, this file
// describes each frame kind's fields once (Msg.fields), and block payloads
// reuse the framed float64 codec of internal/matrix (gob costs ~3× on large
// numeric slices, and the runtime moves thousands of 51 KB blocks). Peers of
// another protocol version are refused at their first frame header.
package net

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// MsgKind labels protocol frames.
type MsgKind uint8

const (
	MsgHello     MsgKind = iota + 1 // worker → master: registration
	MsgChunk                        // master → worker: C chunk
	MsgInstall                      // master → worker: A/B panels, resident ones omitted
	MsgFlush                        // master → worker: return the chunk
	MsgResult                       // worker → master: finished chunk
	MsgHeartbeat                    // bidirectional: liveness beacon / fleet keepalive
	MsgShutdown                     // master → worker: end the session (the worker keeps serving, as on release)
	MsgRelease                      // master → worker: end the session, keep serving
	MsgHave                         // master → worker: job panel digests — which are resident?
	MsgHaveAck                      // worker → master: per-digest presence answer
	MsgCancel                       // master → worker: abandon the held chunk; worker → master: dropped-it ack
)

func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgChunk:
		return "chunk"
	case MsgInstall:
		return "install"
	case MsgFlush:
		return "flush"
	case MsgResult:
		return "result"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgShutdown:
		return "shutdown"
	case MsgRelease:
		return "release"
	case MsgHave:
		return "have"
	case MsgHaveAck:
		return "have-ack"
	case MsgCancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PanelRef names one panel of an install frame: the digest of the full A
// row-panel (or B column-panel) the installment's blocks belong to, and
// whether the worker must serve those blocks from its cache (Resident) or
// from the frame's payload.
type PanelRef struct {
	D        cache.Digest
	Resident bool
}

// Msg is the single protocol envelope; fields irrelevant to a Kind stay at
// their zero values and are not encoded.
type Msg struct {
	Kind      MsgKind
	Name      string        // Hello: worker name
	Kernel    string        // Hello: worker's selected block-update kernel
	Heartbeat time.Duration // Hello: interval at which the worker will beat
	Chunk     matrix.Chunk  // Chunk / Install / Flush / Result / Cancel
	K0, K1    int           // Install: inner panel range [K0, K1)
	T         int           // Install: full inner dimension (panel depth) when refs are present
	Blocks    []*matrix.Block
	Digests   []cache.Digest // Have: the job's distinct panel digests
	HaveBits  []bool         // HaveAck: per-queried-digest presence
	CacheOn   bool           // HaveAck: worker runs a panel cache at all
	// Install: one ref per chunk row (ARefs) and column (BRefs), in order.
	// Both empty means every block is in the payload and nothing is cached.
	ARefs, BRefs []PanelRef
}

const (
	maxNameLen = 1 << 10
	// maxPanelRefs bounds digest lists and panel-ref lists, far above any
	// real job (a ref per block matrix row/column).
	maxPanelRefs = 1 << 22
)

// proto frames the worker protocol: "MMP" version 2, payloads up to 1 GiB —
// far above any real installment.
var proto = wire.Proto{Name: "net", Magic: 0x4d4d5032, Max: 1 << 30}

// fields is the one description of every frame kind's layout: sizing,
// encoding and decoding are all this walk.
func (m *Msg) fields(c *wire.Codec) {
	switch m.Kind {
	case MsgHello:
		c.I64((*int64)(&m.Heartbeat))
		c.String(&m.Name, maxNameLen)
		c.String(&m.Kernel, maxNameLen)
	case MsgChunk, MsgResult:
		chunkFields(c, &m.Chunk)
		c.Blocks(&m.Blocks)
	case MsgInstall:
		chunkFields(c, &m.Chunk)
		c.I32(&m.K0)
		c.I32(&m.K1)
		c.I32(&m.T)
		wire.List(c, &m.ARefs, maxPanelRefs, panelRefFields)
		wire.List(c, &m.BRefs, maxPanelRefs, panelRefFields)
		c.Blocks(&m.Blocks)
	case MsgFlush, MsgCancel:
		chunkFields(c, &m.Chunk)
	case MsgHeartbeat, MsgShutdown, MsgRelease:
		// empty payload
	case MsgHave:
		c.Digests(&m.Digests, maxPanelRefs)
	case MsgHaveAck:
		c.Bool(&m.CacheOn)
		wire.List(c, &m.HaveBits, maxPanelRefs, (*wire.Codec).Bool)
	default:
		c.Fail(fmt.Errorf("unknown message kind %d", m.Kind))
	}
}

func chunkFields(c *wire.Codec, ch *matrix.Chunk) {
	c.I32(&ch.Row0)
	c.I32(&ch.Col0)
	c.I32(&ch.H)
	c.I32(&ch.W)
}

func panelRefFields(c *wire.Codec, r *PanelRef) {
	c.Raw(r.D[:])
	c.Bool(&r.Resident)
}

// WriteMsg writes one length-prefixed frame to w, staging block payloads
// through bc. Long-lived connections hold a matrix.BlockCodec per direction
// so payloads reuse one buffer; nil falls back to a one-shot codec.
func WriteMsg(w io.Writer, m *Msg, bc *matrix.BlockCodec) error {
	return proto.Write(w, uint8(m.Kind), bc, m.fields)
}

// ReadMsg reads one frame from r, decoding block payloads through bc — with
// a pooled codec, a connection's receive loop stops allocating once warm
// (nil falls back to a one-shot codec). The payload is decoded straight off
// the stream: allocation tracks bytes that actually arrive, and large block
// frames cost one copy, mirroring the write side.
func ReadMsg(r io.Reader, bc *matrix.BlockCodec) (*Msg, error) {
	kind, c, err := proto.Begin(r, bc)
	if err != nil {
		return nil, err
	}
	m := &Msg{Kind: MsgKind(kind)}
	m.fields(c)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("net: decode %s: %w", m.Kind, err)
	}
	return m, nil
}
