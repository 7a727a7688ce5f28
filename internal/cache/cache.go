// Package cache is the operand-panel caching layer of the serve runtime: it
// content-addresses the A row-panels and B column-panels a job installs on
// its workers, so a worker that already holds a panel from an earlier job
// never receives it again.
//
// Three pieces cooperate across the process boundary:
//
//   - Digest / JobPanels: content hashes of whole panels (an A row-panel or a
//     B column-panel is t blocks of q×q float64s — the unit a chunk's
//     installments stream in full), computed once per operand and carried
//     through the wire protocols.
//   - PanelCache: the worker-side bounded LRU, keyed by digest, holding
//     installed panels across leases. Entries touched by the current job are
//     pinned — the have/need handshake promises them to the master for the
//     job's duration, so eviction may only take unpinned entries (the cache
//     can transiently exceed its budget rather than break that promise).
//     Every per-job operation costs O(panels the job queries or installs),
//     whatever is resident, and an evicted panel's blocks go back to
//     matrix.SharedPool, where the worker's next install decode finds them:
//     a full cache under all-miss traffic allocates nothing per job.
//   - Registry: the master-side advisory resident-set tracker the scheduler
//     scores affinity with. It is deliberately *not* trusted for transfer
//     skipping — the per-job have/need handshake is the only authority on
//     what a worker holds, so a stale registry entry (worker evicted, worker
//     crashed and re-dialed) can cost a transfer but never corrupt C.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/matrix"
)

// DigestLen is the wire size of a panel digest.
const DigestLen = 16

// Digest identifies a panel by content: the first 16 bytes of a SHA-256 over
// the panel's shape and float64 bit patterns. Two operands sharing a row (or
// column) of identical blocks share the digest, whatever matrix object they
// came from — that is what lets a re-submitted weight matrix hit the cache.
type Digest [DigestLen]byte

// String renders a short hex form for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:6]) }

// panelDigest hashes t blocks (fetched by index) under a (q, t) shape header.
// Each block goes in as its wire payload — q² little-endian float64s, one
// Write, straight from the block's memory on a little-endian host; an
// implicit zero block (nil) hashes as a zero block.
func panelDigest(q, t int, block func(k int) *matrix.Block) Digest {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(q))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(t))
	h.Write(hdr[:])
	var bc matrix.BlockCodec
	var zero []float64
	for k := 0; k < t; k++ {
		data := zero
		if b := block(k); b != nil {
			data = b.Data
		} else if zero == nil {
			zero = make([]float64, q*q)
			data = zero
		}
		bc.WritePayload(h, data) // a hash.Hash never returns an error
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// RowPanelDigest hashes row panel i of m: blocks (i, 0..Cols) in k order.
// Implicit zero blocks hash as zero blocks without being materialized.
func RowPanelDigest(m *matrix.BlockMatrix, i int) Digest {
	return panelDigest(m.Q, m.Cols, func(k int) *matrix.Block { return m.PeekBlock(i, k) })
}

// ColPanelDigest hashes column panel j of m: blocks (0..Rows, j) in k order.
func ColPanelDigest(m *matrix.BlockMatrix, j int) Digest {
	return panelDigest(m.Q, m.Rows, func(k int) *matrix.Block { return m.PeekBlock(k, j) })
}

// PanelDataBytes is the payload size of one panel: t blocks of q×q float64s.
// Every panel of one job — A row-panels and B column-panels alike — shares
// it, since both run the full inner dimension t.
func PanelDataBytes(q, t int) int64 { return 8 * int64(q) * int64(q) * int64(t) }

// JobPanels is one job's complete panel identity: the digest of every A
// row-panel and B column-panel, in matrix order. It is computed once per
// submission (or memoized on a matmul Operand) and travels master→worker in
// the have/need handshake and client→daemon in the submit frame.
type JobPanels struct {
	T, Q  int
	ARows []Digest // ARows[i] = digest of A's row panel i (len R)
	BCols []Digest // BCols[j] = digest of B's column panel j (len S)
}

// PanelsForJob hashes every panel of the product's operands. A is r×t
// blocks, B is t×s blocks; both panel families have depth t.
func PanelsForJob(a, b *matrix.BlockMatrix) *JobPanels {
	jp := &JobPanels{T: a.Cols, Q: a.Q}
	jp.ARows = make([]Digest, a.Rows)
	for i := 0; i < a.Rows; i++ {
		jp.ARows[i] = RowPanelDigest(a, i)
	}
	jp.BCols = make([]Digest, b.Cols)
	for j := 0; j < b.Cols; j++ {
		jp.BCols[j] = ColPanelDigest(b, j)
	}
	return jp
}

// PanelBytes is the payload size shared by every panel of this job.
func (jp *JobPanels) PanelBytes() int64 { return PanelDataBytes(jp.Q, jp.T) }

// Digests lists the job's distinct panel digests, A rows first, in stable
// first-appearance order — the query set of the have/need handshake.
func (jp *JobPanels) Digests() []Digest {
	seen := make(map[Digest]struct{}, len(jp.ARows)+len(jp.BCols))
	out := make([]Digest, 0, len(jp.ARows)+len(jp.BCols))
	for _, fam := range [2][]Digest{jp.ARows, jp.BCols} {
		for _, d := range fam {
			if _, ok := seen[d]; ok {
				continue
			}
			seen[d] = struct{}{}
			out = append(out, d)
		}
	}
	return out
}

// entry is one cached panel. blocks are owned by the cache from Install until
// eviction hands them to the pool. The entry is pinned while epoch equals the
// cache's.
type entry struct {
	d      Digest
	blocks []*matrix.Block
	bytes  int64
	epoch  uint64
	elem   *list.Element
}

// Stats is a cache snapshot.
type Stats struct {
	Panels    int   // resident panels
	Bytes     int64 // resident payload bytes
	Budget    int64
	Hits      int64 // BeginJob queries answered from residency
	Misses    int64 // BeginJob queries the master had to ship
	Evictions int64
}

// PanelCache is the worker-side panel store: a byte-budgeted LRU keyed by
// digest, shared by every session a worker daemon serves (the whole point —
// panels survive lease boundaries). The methods lock, so a Snapshot may come
// from anywhere, but a cache serves one session's pin epoch at a time:
// BeginJob and UnpinAll end every earlier pin, whoever took it, so sessions
// must use the cache one after the other (net.Serve does).
//
// Pinning is the correctness contract with the master: BeginJob pins every
// queried panel that is present (the have/need answer promises them for the
// job), Install pins what the job promotes (the master marks them resident the
// moment the chunk's result lands) and Get pins what it returns. An entry is
// pinned while its epoch equals the cache's, so ending every pin is one
// increment. Eviction never takes a pinned entry — a cache whose pinned set
// exceeds the budget runs over budget until UnpinAll, rather than break a
// promise mid-job.
//
// Block ownership: Install moves the blocks to the cache, and eviction puts
// them into matrix.SharedPool, from where any decode in the process may take
// and overwrite them at once. Only unpinned entries are evicted, so blocks
// obtained from Get are valid until the pin epoch ends — the next BeginJob or
// UnpinAll — and must not be read after it.
type PanelCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	epoch   uint64
	ll      *list.List // front = most recently used
	entries map[Digest]*entry
	pool    *matrix.BlockPool // where evicted blocks go

	hits, misses, evictions int64
}

// NewPanelCache returns a cache bounded to budget payload bytes (≤0: an
// unbounded cache — useful in tests, unwise on a real worker).
func NewPanelCache(budget int64) *PanelCache {
	return &PanelCache{budget: budget, ll: list.New(), entries: make(map[Digest]*entry), pool: &matrix.SharedPool}
}

// pinLocked pins e for the current epoch and marks it most recently used.
func (c *PanelCache) pinLocked(e *entry) {
	e.epoch = c.epoch
	c.ll.MoveToFront(e.elem)
}

// BeginJob starts a job's pin epoch: previous pins are dropped, then each
// queried digest is answered — have[i] reports whether ds[i] is resident —
// and resident ones are pinned and refreshed in the LRU. This is the
// worker-side half of the have/need handshake.
func (c *PanelCache) BeginJob(ds []Digest) (have []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	have = make([]bool, len(ds))
	for i, d := range ds {
		e, ok := c.entries[d]
		if !ok {
			c.misses++
			continue
		}
		c.hits++
		c.pinLocked(e)
		have[i] = true
	}
	c.evictLocked()
	return have
}

// Get returns the resident panel's blocks (nil when absent) and pins the
// panel, so the blocks stay valid until the pin epoch ends. They remain
// cache-owned: callers may read them as kernel inputs but must never mutate
// them or hand them to a block pool.
func (c *PanelCache) Get(d Digest) []*matrix.Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[d]
	if !ok {
		return nil
	}
	c.pinLocked(e)
	return e.blocks
}

// Install stores a freshly streamed panel and pins it for the rest of the
// job (the master promotes it to resident when the chunk's result returns,
// so it must survive until the pin epoch ends). Ownership of blocks moves to
// the cache; if the digest is already resident the existing entry wins and
// the caller keeps ownership of its blocks (reported by absorbed=false).
func (c *PanelCache) Install(d Digest, blocks []*matrix.Block) (absorbed bool) {
	var bytes int64
	for _, b := range blocks {
		if b != nil {
			bytes += 8 * int64(b.Q) * int64(b.Q)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[d]; ok {
		c.pinLocked(e)
		return false
	}
	e := &entry{d: d, blocks: blocks, bytes: bytes, epoch: c.epoch}
	e.elem = c.ll.PushFront(e)
	c.entries[d] = e
	c.bytes += bytes
	c.evictLocked()
	return true
}

// UnpinAll ends the pin epoch (session end, or a new job's BeginJob) and
// trims the cache back under budget.
func (c *PanelCache) UnpinAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.evictLocked()
}

// evictLocked drops least-recently-used unpinned entries until the cache
// fits its budget, recycling their blocks. Pinning moves an entry to the
// front, so the walk from the back meets the unpinned ones first.
func (c *PanelCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for e := c.ll.Back(); e != nil && c.bytes > c.budget; {
		ent := e.Value.(*entry)
		prev := e.Prev()
		if ent.epoch != c.epoch {
			c.ll.Remove(e)
			delete(c.entries, ent.d)
			c.bytes -= ent.bytes
			c.evictions++
			c.pool.PutAll(ent.blocks)
		}
		e = prev
	}
}

// Snapshot reports the cache's current occupancy and lifetime counters.
func (c *PanelCache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Panels: len(c.entries), Bytes: c.bytes, Budget: c.budget,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
