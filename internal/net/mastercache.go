package net

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// This file is the master's half of the panel-cache protocol. A job that
// wants transfer skipping calls BeginJob with its panel digests before Run;
// the master then runs a have/need handshake with every cacheable worker,
// ships installments as digest-addressed install frames with resident
// panels omitted, and promotes a chunk's panels to resident when the chunk's
// result lands (the worker, symmetrically, promotes at the flush that
// produced that result — so the master's residency view never runs ahead of
// the worker's). EndJob closes the epoch.
//
// The correctness invariant: every skip decision traces to this job's own
// handshake answer or to a result frame this job already received — never to
// carried-over state from an earlier lease, which is only ever used as
// scheduling advice (cache.Registry).

// linkStats is one lease's cache-effect counters for one worker link. All
// fields are atomics: dispatch goroutines bump them mid-run while stats
// readers (a session polling CacheStats) load them concurrently.
type linkStats struct {
	cacheOn        atomic.Bool
	hits, misses   atomic.Int64 // handshake answers: resident / must-ship
	aSent, aSaved  atomic.Int64 // A-panel wire bytes shipped / skipped
	bSent, bSaved  atomic.Int64 // B-panel wire bytes shipped / skipped
	residentPanels atomic.Int64
	residentBytes  atomic.Int64
}

// WorkerCacheStats is one worker's cache effectiveness over this master's
// lease (a fleet accumulates these across leases).
type WorkerCacheStats struct {
	Name           string
	CacheOn        bool  // worker runs a panel cache
	PanelHits      int64 // handshake queries answered "resident"
	PanelMisses    int64 // handshake queries answered "absent"
	ASentBytes     int64 // A-panel payload bytes put on the wire
	ASavedBytes    int64 // A-panel payload bytes skipped as resident
	BSentBytes     int64
	BSavedBytes    int64
	ResidentPanels int64 // job panels resident at last accounting
	ResidentBytes  int64
}

// BeginJob opens a panel-cache epoch: jp names every A row-panel and B
// column-panel of the job about to run, and each live worker is asked which
// of them it already holds. Until EndJob, SendAB ships digest-addressed
// installments that omit resident panels. A nil jp (or not calling BeginJob
// at all) ships every install frame with empty ref lists: a full transfer.
//
// Call it before RunContext/Execute, never during: the handshake
// uses the links' codecs, which the run's dispatch goroutines own. A worker
// that fails the handshake is retired exactly as a failed send would retire
// it; the executor's failover re-plans around it.
func (m *Master) BeginJob(jp *cache.JobPanels) {
	m.mu.Lock()
	m.jp = jp
	links := append([]*link(nil), m.links...)
	stats := append([]*linkStats(nil), m.stats...)
	m.mu.Unlock()
	for w, l := range links {
		l.have, l.cacheable = nil, false
		if jp == nil || l.conn == nil {
			continue
		}
		if err := handshakeLink(l, m.opts, stats[w], jp); err != nil {
			m.down(w, "cache handshake", err)
		}
	}
}

// EndJob closes the epoch opened by BeginJob and reverts SendAB to full
// transfers. Residency bookkeeping on the links survives until the
// next BeginJob so ResidentSnapshot can read it; it is never consulted for
// skipping outside an epoch.
func (m *Master) EndJob() {
	m.mu.Lock()
	m.jp = nil
	m.mu.Unlock()
}

// jobPanels reads the current epoch's panel set (nil outside an epoch).
func (m *Master) jobPanels() *cache.JobPanels {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.jp
}

// stat returns worker w's counter block (never nil for a table index).
func (m *Master) stat(w int) *linkStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if w < 0 || w >= len(m.stats) {
		return &linkStats{}
	}
	return m.stats[w]
}

// handshakeLink runs the have/need exchange on one link the caller owns
// exclusively (pre-run, or a mid-run joiner not yet in the table): send the
// job's digest set, read the worker's per-digest answer — tolerating the
// heartbeats a pooled session has been beating — and seed the link's
// residency map from it.
func handshakeLink(l *link, opts MasterOptions, st *linkStats, jp *cache.JobPanels) error {
	ds := jp.Digests()
	l.conn.SetWriteDeadline(time.Now().Add(opts.IOTimeout))
	if err := WriteMsg(l.wr, &Msg{Kind: MsgHave, Digests: ds}, &l.enc); err != nil {
		return err
	}
	if err := l.wr.Flush(); err != nil {
		return err
	}
	wait := opts.IOTimeout
	if hb := 3 * l.heartbeat; hb > wait {
		wait = hb
	}
	for {
		l.conn.SetReadDeadline(time.Now().Add(wait))
		msg, err := ReadMsg(l.rd, &l.dec)
		if err != nil {
			return err
		}
		switch msg.Kind {
		case MsgHeartbeat:
			continue
		case MsgHaveAck:
			if len(msg.HaveBits) != len(ds) {
				return fmt.Errorf("have-ack answers %d digests, queried %d", len(msg.HaveBits), len(ds))
			}
			st.cacheOn.Store(msg.CacheOn)
			if !msg.CacheOn {
				return nil // cacheless worker: its install frames carry no refs
			}
			l.cacheable = true
			l.have = make(map[cache.Digest]bool, len(ds))
			pb := jp.PanelBytes()
			for i, have := range msg.HaveBits {
				if have {
					l.have[ds[i]] = true
					st.hits.Add(1)
					st.residentPanels.Add(1)
					st.residentBytes.Add(pb)
				} else {
					st.misses.Add(1)
				}
			}
			return nil
		default:
			return fmt.Errorf("worker sent %s during cache handshake", msg.Kind)
		}
	}
}

// sendInstall frames one installment for worker w — the single framing path
// of SendAB and SendABRaw. With jp set and the link inside a cache epoch the
// frame is digest-addressed: one ref per chunk row and column, the blocks of
// resident panels omitted. Otherwise the ref lists stay empty and every block
// ships. Wire block order is the same either way — A rows row-major, then B
// blocks k-major, minus the omissions — so the worker rebuilds the full panel
// lists with one linear walk. The payload is gathered into the link's scratch
// slice, safe to reuse per send because the frame is fully staged on the wire
// before send returns and one dispatch goroutine drives a link at a time.
func (m *Master) sendInstall(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block, jp *cache.JobPanels) error {
	l := m.link(w)
	if l == nil {
		return fmt.Errorf("net: send install to unknown worker %d: %w", w, engine.ErrWorkerDown)
	}
	msg := &Msg{Kind: MsgInstall, Chunk: ch, K0: k0, K1: k1}
	aRefs, bRefs := make([]PanelRef, ch.H), make([]PanelRef, ch.W)
	if jp != nil && l.cacheable {
		for i := range aRefs {
			dg := jp.ARows[ch.Row0+i]
			aRefs[i] = PanelRef{D: dg, Resident: l.have[dg]}
		}
		for j := range bRefs {
			dg := jp.BCols[ch.Col0+j]
			bRefs[j] = PanelRef{D: dg, Resident: l.have[dg]}
		}
		msg.T, msg.ARefs, msg.BRefs = jp.T, aRefs, bRefs
	}
	st := m.stat(w)
	d := k1 - k0
	q := 0
	if len(a) > 0 {
		q = a[0].Q
	} else if len(b) > 0 {
		q = b[0].Q
	}
	ws := int64(d) * int64(matrix.BlockWireSize(q))
	blocks := l.abBuf[:0]
	for i, r := range aRefs {
		if r.Resident {
			st.aSaved.Add(ws)
			continue
		}
		st.aSent.Add(ws)
		blocks = append(blocks, a[i*d:(i+1)*d]...)
	}
	for _, r := range bRefs {
		if r.Resident {
			st.bSaved.Add(ws)
		} else {
			st.bSent.Add(ws)
		}
	}
	for k := 0; k < d; k++ {
		for j, r := range bRefs {
			if !r.Resident {
				blocks = append(blocks, b[k*ch.W+j])
			}
		}
	}
	l.abBuf, msg.Blocks = blocks, blocks
	return m.send(w, "send install", msg)
}

// promote marks a completed chunk's panels resident on worker w. Called only
// after the chunk's result frame arrived: by then the worker has flushed, and
// its flush promoted every fully-streamed pending panel into its cache — the
// two sides promote the same set in the same causal order. Promotion is never
// partial: an installment's delivery alone proves nothing (a panel spans all
// the chunk's installments), so nothing is marked at SendAB time.
func (m *Master) promote(w int, l *link, ch matrix.Chunk) {
	jp := m.jobPanels()
	if jp == nil || !l.cacheable {
		return
	}
	st := m.stat(w)
	pb := jp.PanelBytes()
	mark := func(dg cache.Digest) {
		if !l.have[dg] {
			l.have[dg] = true
			st.residentPanels.Add(1)
			st.residentBytes.Add(pb)
		}
	}
	for i := 0; i < ch.H; i++ {
		mark(jp.ARows[ch.Row0+i])
	}
	for j := 0; j < ch.W; j++ {
		mark(jp.BCols[ch.Col0+j])
	}
}

// CacheStats reports per-worker cache effectiveness for this master's lease.
// Safe at any time — counters are atomics — including mid-run.
func (m *Master) CacheStats() []WorkerCacheStats {
	m.mu.RLock()
	links := append([]*link(nil), m.links...)
	stats := append([]*linkStats(nil), m.stats...)
	m.mu.RUnlock()
	out := make([]WorkerCacheStats, len(links))
	for i, l := range links {
		st := stats[i]
		out[i] = WorkerCacheStats{
			Name:           l.name,
			CacheOn:        st.cacheOn.Load(),
			PanelHits:      st.hits.Load(),
			PanelMisses:    st.misses.Load(),
			ASentBytes:     st.aSent.Load(),
			ASavedBytes:    st.aSaved.Load(),
			BSentBytes:     st.bSent.Load(),
			BSavedBytes:    st.bSaved.Load(),
			ResidentPanels: st.residentPanels.Load(),
			ResidentBytes:  st.residentBytes.Load(),
		}
	}
	return out
}

// ResidentSnapshot reports, per worker index, the job panels known resident
// there (digest → payload bytes) — what a fleet folds into its scheduling
// registry after a job. Entry i is nil for a worker that died during the run
// (its session's residency died with it) and empty for a live cacheless
// worker (known to hold nothing). Call it after the run joins and before the
// next BeginJob; the links' residency maps belong to dispatch goroutines
// while a run is in flight.
func (m *Master) ResidentSnapshot() []map[cache.Digest]int64 {
	m.mu.RLock()
	links := append([]*link(nil), m.links...)
	jp := m.jp
	m.mu.RUnlock()
	pb := int64(0)
	if jp != nil {
		pb = jp.PanelBytes()
	}
	out := make([]map[cache.Digest]int64, len(links))
	for i, l := range links {
		if l.conn == nil {
			continue
		}
		res := make(map[cache.Digest]int64, len(l.have))
		if l.cacheable {
			for dg, ok := range l.have {
				if ok {
					res[dg] = pb
				}
			}
		}
		out[i] = res
	}
	return out
}
