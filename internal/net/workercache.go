package net

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/matrix"
)

// pendingPanel is a panel mid-stream: a job's digest-addressed installments
// each contribute one k-range of blocks, and the chunk's flush promotes the
// panel into the cache once every position is covered. covered counts filled
// positions, so duplicate contributions (the same digest appearing as two
// rows of one chunk) are detected without rescanning.
type pendingPanel struct {
	blocks  []*matrix.Block
	covered int
}

// assembleInstall reconstructs an installment's full A/B panel lists.
// Without refs every block is in the frame's payload — A rows row-major, then
// B blocks k-major — nothing is cached, and all of them are spent once
// applied. With refs, resident panels come from the cache and the rest from
// the payload, whose order is the same minus the omissions (resident A rows
// dropped, resident B columns skipped per k). Wire blocks are absorbed into
// pending as they pass; the returned spent are the ones pending had no
// vacancy for (duplicate-digest contributions), which the caller recycles
// after the installment is applied.
func assembleInstall(msg *Msg, cur matrix.Chunk, pc *cache.PanelCache, pending map[cache.Digest]*pendingPanel) (am, bm, spent []*matrix.Block, err error) {
	d := msg.K1 - msg.K0
	if len(msg.ARefs)+len(msg.BRefs) == 0 {
		if d <= 0 || len(msg.Blocks) != d*(cur.H+cur.W) {
			return nil, nil, nil, fmt.Errorf("install payload %d blocks for %v depth %d", len(msg.Blocks), cur, d)
		}
		return msg.Blocks[:cur.H*d], msg.Blocks[cur.H*d:], msg.Blocks, nil
	}
	if d <= 0 || msg.K0 < 0 || msg.K1 > msg.T || msg.T > maxPanelRefs {
		return nil, nil, nil, fmt.Errorf("install range [%d,%d) of depth %d", msg.K0, msg.K1, msg.T)
	}
	if len(msg.ARefs) != cur.H || len(msg.BRefs) != cur.W {
		return nil, nil, nil, fmt.Errorf("install refs %d×%d for chunk %v", len(msg.ARefs), len(msg.BRefs), cur)
	}
	wired := 0
	for _, r := range msg.ARefs {
		if !r.Resident {
			wired += d
		}
	}
	for _, r := range msg.BRefs {
		if !r.Resident {
			wired += d
		}
	}
	if len(msg.Blocks) != wired {
		return nil, nil, nil, fmt.Errorf("install payload %d blocks, expected %d", len(msg.Blocks), wired)
	}

	resident := func(dg cache.Digest) ([]*matrix.Block, error) {
		if pc == nil {
			return nil, fmt.Errorf("install references resident panel %v but caching is off", dg)
		}
		pb := pc.Get(dg)
		if len(pb) != msg.T {
			// The handshake (or a promoted chunk) promised this panel and
			// promised panels are pinned, so absence is a protocol breach,
			// not an eviction race. Failing the session is the safe answer:
			// the master fails over and replays the chunk elsewhere.
			return nil, fmt.Errorf("install references panel %v: not resident", dg)
		}
		return pb, nil
	}
	absorb := func(dg cache.Digest, pos int, b *matrix.Block) {
		if pc == nil {
			spent = append(spent, b)
			return
		}
		ent := pending[dg]
		if ent == nil {
			ent = &pendingPanel{blocks: make([]*matrix.Block, msg.T)}
			pending[dg] = ent
		}
		if len(ent.blocks) != msg.T || ent.blocks[pos] != nil {
			spent = append(spent, b)
			return
		}
		ent.blocks[pos] = b
		ent.covered++
	}

	am = make([]*matrix.Block, cur.H*d)
	bm = make([]*matrix.Block, d*cur.W)
	p := 0
	for i, r := range msg.ARefs {
		if r.Resident {
			pb, err := resident(r.D)
			if err != nil {
				return nil, nil, nil, err
			}
			copy(am[i*d:(i+1)*d], pb[msg.K0:msg.K1])
			continue
		}
		wire := msg.Blocks[p : p+d]
		p += d
		copy(am[i*d:(i+1)*d], wire)
		for k, b := range wire {
			absorb(r.D, msg.K0+k, b)
		}
	}
	colPanels := make([][]*matrix.Block, cur.W)
	for j, r := range msg.BRefs {
		if r.Resident {
			pb, err := resident(r.D)
			if err != nil {
				return nil, nil, nil, err
			}
			colPanels[j] = pb
		}
	}
	for k := 0; k < d; k++ {
		for j := 0; j < cur.W; j++ {
			if cp := colPanels[j]; cp != nil {
				bm[k*cur.W+j] = cp[msg.K0+k]
				continue
			}
			b := msg.Blocks[p]
			p++
			bm[k*cur.W+j] = b
			absorb(msg.BRefs[j].D, msg.K0+k, b)
		}
	}
	return am, bm, spent, nil
}
