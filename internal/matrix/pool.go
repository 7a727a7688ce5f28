package matrix

import (
	"math"
	"sync"
)

// BlockPool recycles Blocks to keep steady-state execution off the
// allocator: a q×q float64 block is ~51 KB at the default q=80, and the real
// runtimes move thousands of them per run — one per installment panel, per
// chunk clone, per codec read. The pool keeps one sync.Pool per block edge,
// created on first use, so mixed-q workloads (tests, LU panels) coexist.
// The runtimes share one instance, SharedPool; benchmarks and tests make
// their own.
//
// The zero value is ready to use, and all methods are safe for concurrent
// use. A nil *BlockPool is also valid: Get falls back to a fresh allocation
// and Put discards, so pool-threading code needs no nil checks.
type BlockPool struct {
	pools sync.Map // block edge (int) → *sync.Pool of *Block
}

func (p *BlockPool) pool(q int) *sync.Pool {
	if v, ok := p.pools.Load(q); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.pools.LoadOrStore(q, &sync.Pool{New: func() any { return NewBlock(q) }})
	return v.(*sync.Pool)
}

// Get returns a q×q block. Its contents are arbitrary (stale data from a
// previous user); callers that do not overwrite every element should call
// Zero first.
func (p *BlockPool) Get(q int) *Block {
	if p == nil {
		return NewBlock(q)
	}
	return p.pool(q).Get().(*Block)
}

// poison makes Put overwrite the block with NaN, so a reader still holding a
// recycled block fails the bitwise suites instead of passing by luck. Set only
// by the poisonpool build tag; the race detector cannot see this class of bug,
// Put and Get being synchronized.
var poison bool

// Put recycles b for a future Get of the same edge. The caller must hold no
// other reference to b — a send of b still in progress counts; nil is ignored.
func (p *BlockPool) Put(b *Block) {
	if p == nil || b == nil {
		return
	}
	if poison {
		nan := math.NaN()
		for i := range b.Data {
			b.Data[i] = nan
		}
	}
	p.pool(b.Q).Put(b)
}

// PutAll recycles every non-nil block in the list.
func (p *BlockPool) PutAll(blocks []*Block) {
	if p == nil {
		return
	}
	for _, b := range blocks {
		p.Put(b)
	}
}

// SharedPool is the one process-wide pool of the real runtimes. Every block
// that exists only for a job or a transfer is born and ends here: the daemon's
// submit decode (a job's A, B and C, returned at lease end), the engine's chunk
// snapshots and the master link's result carriers (returned as soon as sent or
// landed), a worker session's chunk and installment blocks. The panels a worker
// cache absorbs leave the cycle only while they are resident: eviction puts
// them back (see cache.PanelCache for why no reader can still hold one), so a
// full cache fed panels it has never seen decodes each into the blocks of the
// one it displaced.
var SharedPool BlockPool
