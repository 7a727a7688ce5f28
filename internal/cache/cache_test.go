package cache

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

func randMatrix(rows, cols, q int, seed int64) *matrix.BlockMatrix {
	m := matrix.NewBlockMatrix(rows, cols, q)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

func TestPanelDigests(t *testing.T) {
	a := randMatrix(3, 4, 4, 1)
	b := randMatrix(3, 4, 4, 1) // identical content, distinct object

	if RowPanelDigest(a, 0) != RowPanelDigest(b, 0) {
		t.Fatal("identical row panels hash differently")
	}
	if RowPanelDigest(a, 0) == RowPanelDigest(a, 1) {
		t.Fatal("distinct row panels collide")
	}
	if ColPanelDigest(a, 1) != ColPanelDigest(b, 1) {
		t.Fatal("identical column panels hash differently")
	}

	// A single bit flip must change the digest.
	before := RowPanelDigest(a, 2)
	blk := a.Block(2, 3)
	blk.Set(1, 1, blk.At(1, 1)+1e-9)
	if RowPanelDigest(a, 2) == before {
		t.Fatal("digest ignored an element change")
	}

	// Implicit zero blocks hash like materialized zero blocks, without being
	// materialized.
	z1 := matrix.NewBlockMatrix(2, 3, 4)
	z2 := matrix.NewBlockMatrix(2, 3, 4)
	z2.Block(0, 1).Zero() // materialize one explicitly
	if RowPanelDigest(z1, 0) != RowPanelDigest(z2, 0) {
		t.Fatal("implicit and explicit zero blocks hash differently")
	}
	if z1.PeekBlock(0, 1) != nil {
		t.Fatal("digesting materialized an implicit zero block")
	}
}

func TestJobPanels(t *testing.T) {
	a := randMatrix(3, 2, 4, 7)
	b := randMatrix(2, 4, 4, 8)
	jp := PanelsForJob(a, b)
	if jp.T != 2 || jp.Q != 4 || len(jp.ARows) != 3 || len(jp.BCols) != 4 {
		t.Fatalf("unexpected shape: %+v", jp)
	}
	if got, want := jp.PanelBytes(), PanelDataBytes(4, 2); got != want {
		t.Fatalf("panel bytes %d, want %d", got, want)
	}
	if n := len(jp.Digests()); n != 7 {
		t.Fatalf("expected 7 distinct digests, got %d", n)
	}

	// A duplicated row panel dedupes in the handshake query set.
	for k := 0; k < a.Cols; k++ {
		a.SetBlock(1, k, a.Block(0, k).Clone())
	}
	jp = PanelsForJob(a, b)
	if n := len(jp.Digests()); n != 6 {
		t.Fatalf("expected 6 distinct digests after duplicating a row, got %d", n)
	}
}

func panelBlocks(q, t int, seed int64) []*matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Block, t)
	for i := range out {
		out[i] = matrix.NewBlock(q)
		out[i].FillRandom(rng)
	}
	return out
}

func dig(seed int64) Digest {
	var d Digest
	rand.New(rand.NewSource(seed)).Read(d[:])
	return d
}

// seqDigest is the n-th of a sequence of distinct digests, for tests that
// need more of them than dig can seed quickly.
func seqDigest(n int) Digest {
	var d Digest
	binary.LittleEndian.PutUint64(d[:], uint64(n))
	return d
}

func TestPanelCacheLRUEviction(t *testing.T) {
	q, depth := 4, 2
	panelBytes := PanelDataBytes(q, depth) // 256 bytes
	c := NewPanelCache(3 * panelBytes)

	ds := []Digest{dig(1), dig(2), dig(3), dig(4)}
	for i, d := range ds[:3] {
		if !c.Install(d, panelBlocks(q, depth, int64(i))) {
			t.Fatalf("install %d not absorbed", i)
		}
	}
	c.UnpinAll()
	if st := c.Snapshot(); st.Panels != 3 || st.Bytes != 3*panelBytes {
		t.Fatalf("expected 3 resident panels, got %+v", st)
	}

	// Touch ds[0] so ds[1] is the LRU victim, then overflow by one panel.
	if c.Get(ds[0]) == nil {
		t.Fatal("ds[0] should be resident")
	}
	c.Install(ds[3], panelBlocks(q, depth, 9))
	c.UnpinAll()
	if c.Get(ds[1]) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	for _, d := range []Digest{ds[0], ds[2], ds[3]} {
		if c.Get(d) == nil {
			t.Fatalf("panel %v unexpectedly evicted", d)
		}
	}
	if st := c.Snapshot(); st.Evictions != 1 || st.Bytes != 3*panelBytes {
		t.Fatalf("expected exactly one eviction, got %+v", st)
	}
}

func TestPanelCachePinningBlocksEviction(t *testing.T) {
	q, depth := 4, 2
	panelBytes := PanelDataBytes(q, depth)
	c := NewPanelCache(2 * panelBytes)
	d1, d2 := dig(1), dig(2)
	c.Install(d1, panelBlocks(q, depth, 1))
	c.Install(d2, panelBlocks(q, depth, 2))
	c.UnpinAll()

	// BeginJob pins both; installing two more panels overshoots the budget
	// because nothing evictable remains.
	have := c.BeginJob([]Digest{d1, d2, dig(3)})
	if !have[0] || !have[1] || have[2] {
		t.Fatalf("unexpected handshake answer %v", have)
	}
	c.Install(dig(4), panelBlocks(q, depth, 4))
	c.Install(dig(5), panelBlocks(q, depth, 5))
	if st := c.Snapshot(); st.Bytes != 4*panelBytes || st.Evictions != 0 {
		t.Fatalf("pinned entries must not evict mid-job: %+v", st)
	}
	if c.Get(d1) == nil || c.Get(d2) == nil {
		t.Fatal("pinned panel evicted mid-job")
	}

	// The epoch ends: the cache trims back under budget.
	c.UnpinAll()
	if st := c.Snapshot(); st.Bytes > 2*panelBytes {
		t.Fatalf("cache still over budget after UnpinAll: %+v", st)
	}

	// A fresh BeginJob drops the previous epoch's pins by itself.
	c.BeginJob(nil)
	c.Install(dig(6), panelBlocks(q, depth, 6))
	c.Install(dig(7), panelBlocks(q, depth, 7))
	c.Install(dig(8), panelBlocks(q, depth, 8))
	c.UnpinAll()
	if st := c.Snapshot(); st.Bytes > 2*panelBytes {
		t.Fatalf("cache over budget after epoch turnover: %+v", st)
	}
}

func TestPanelCacheInstallDuplicate(t *testing.T) {
	c := NewPanelCache(0)
	d := dig(42)
	first := panelBlocks(4, 2, 1)
	if !c.Install(d, first) {
		t.Fatal("first install should absorb")
	}
	spare := panelBlocks(4, 2, 2)
	want := spare[0].Clone()
	if c.Install(d, spare) {
		t.Fatal("duplicate install must not absorb")
	}
	got := c.Get(d)
	if len(got) != 2 || got[0] != first[0] {
		t.Fatal("duplicate install replaced the resident blocks")
	}

	// The refused blocks stayed with the caller: evicting the entry recycles
	// the resident blocks and only those.
	var pool matrix.BlockPool
	c.pool, c.budget = &pool, 1
	c.UnpinAll()
	if st := c.Snapshot(); st.Panels != 0 {
		t.Fatalf("entry survived a 1-byte budget: %+v", st)
	}
	if !spare[0].Equal(want, 0) {
		t.Error("eviction overwrote blocks a duplicate install left with the caller")
	}
	for _, b := range drain(&pool, 4, 4) {
		if b == spare[0] || b == spare[1] {
			t.Error("the pool holds blocks a duplicate install left with the caller")
		}
	}
}

// drain takes n blocks of edge q out of pool: whatever it holds, then fresh
// ones.
func drain(pool *matrix.BlockPool, q, n int) []*matrix.Block {
	out := make([]*matrix.Block, n)
	for i := range out {
		out[i] = pool.Get(q)
	}
	return out
}

// poisoned reports whether this build's pools overwrite what they take back
// (-tags poisonpool).
func poisoned() bool {
	var pool matrix.BlockPool
	b := matrix.NewBlock(1)
	pool.Put(b)
	return math.IsNaN(b.Data[0])
}

// TestPanelCacheEvictionRecycles: an evicted panel's blocks go to the pool —
// that is what keeps a full cache under all-miss traffic off the allocator —
// and a pinned panel's never do, because the job that pinned it may be reading
// them.
func TestPanelCacheEvictionRecycles(t *testing.T) {
	q, depth := 4, 2
	panelBytes := PanelDataBytes(q, depth)
	var pool matrix.BlockPool
	c := NewPanelCache(2 * panelBytes)
	c.pool = &pool

	// Eight dead panels from an earlier epoch, two pinned by the handshake,
	// two installed by the job: 12 panels in a 2-panel budget.
	dead := make(map[*matrix.Block]bool)
	live := make(map[*matrix.Block]*matrix.Block) // block → its content when installed
	install := func(seed int64, into func(*matrix.Block)) {
		blocks := panelBlocks(q, depth, seed)
		for _, b := range blocks {
			into(b)
		}
		c.Install(dig(seed), blocks)
	}
	keep := func(b *matrix.Block) { live[b] = b.Clone() }
	install(1, keep)
	install(2, keep)
	for seed := int64(10); seed < 18; seed++ {
		install(seed, func(b *matrix.Block) { dead[b] = true })
	}
	if st := c.Snapshot(); st.Evictions != 0 {
		t.Fatalf("evicted inside the installing epoch: %+v", st)
	}
	c.BeginJob([]Digest{dig(1), dig(2)})
	install(3, keep)
	install(4, keep)

	if st := c.Snapshot(); st.Evictions != 8 || st.Panels != 4 || st.Bytes != 4*panelBytes {
		t.Fatalf("want the 8 unpinned panels evicted and the 4 pinned resident: %+v", st)
	}
	for b, want := range live {
		if !b.Equal(want, 0) {
			t.Fatal("a pinned panel's block was overwritten")
		}
	}
	back := 0
	for _, b := range drain(&pool, q, len(dead)+len(live)) {
		if live[b] != nil {
			t.Fatal("a pinned panel's block reached the pool")
		}
		if dead[b] {
			back++
		}
	}
	// sync.Pool may drop a Put (it does at random under -race), so not every
	// block need come back; that none of 16 does means eviction put none.
	if back == 0 {
		t.Errorf("none of the %d evicted blocks reached the pool", len(dead))
	}
	if poisoned() {
		for b := range dead {
			if !math.IsNaN(b.Data[0]) {
				t.Fatal("an evicted block was not recycled")
			}
		}
	}
}

// TestPanelCachePinsEndWithTheEpoch: a pin taken by BeginJob's answer, by
// Install or by Get holds until the next BeginJob or UnpinAll and no longer.
func TestPanelCachePinsEndWithTheEpoch(t *testing.T) {
	q, depth := 4, 2
	panelBytes := PanelDataBytes(q, depth)
	enders := map[string]func(*PanelCache){
		"BeginJob": func(c *PanelCache) { c.BeginJob(nil) },
		"UnpinAll": (*PanelCache).UnpinAll,
	}
	for name, end := range enders {
		t.Run(name, func(t *testing.T) {
			c := NewPanelCache(panelBytes)
			c.pool = new(matrix.BlockPool)
			for seed := int64(1); seed <= 3; seed++ {
				c.Install(dig(seed), panelBlocks(q, depth, seed))
			}
			end(c) // LRU order: 1 goes first, 3 stays
			if st := c.Snapshot(); st.Panels != 1 || c.Get(dig(3)) == nil {
				t.Fatalf("want only the newest panel resident: %+v", st)
			}

			// One pin of each kind, all over budget together.
			c.BeginJob([]Digest{dig(3)})
			c.Install(dig(4), panelBlocks(q, depth, 4))
			end(c)
			c.Install(dig(5), panelBlocks(q, depth, 5))
			if st := c.Snapshot(); st.Panels != 1 || c.Get(dig(5)) == nil {
				t.Fatalf("pins of the ended epoch still hold: %+v", st)
			}
			end(c)
			if c.Get(dig(5)) == nil { // unpinned, and pinned again by this Get
				t.Fatal("newest panel lost")
			}
			c.Install(dig(6), panelBlocks(q, depth, 6))
			if st := c.Snapshot(); st.Panels != 2 || st.Bytes != 2*panelBytes {
				t.Fatalf("a panel handed out by Get was evicted inside its epoch: %+v", st)
			}
			end(c)
			if st := c.Snapshot(); st.Bytes > panelBytes {
				t.Fatalf("over budget after the epoch ended: %+v", st)
			}
		})
	}
}

// BenchmarkPanelCacheBeginJob times one job's cache traffic — a handshake
// that misses, 15 installs, the evictions they force — against a full cache.
// The rows must read alike: the cost follows the panels the job touches, not
// the panels resident.
func BenchmarkPanelCacheBeginJob(b *testing.B) {
	const jobPanels = 15
	for _, resident := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("resident=%dk", resident>>10), func(b *testing.B) {
			c := NewPanelCache(int64(resident) * PanelDataBytes(1, 1))
			c.pool = nil // blocks are shared below; a nil pool discards
			blocks := []*matrix.Block{matrix.NewBlock(1)}
			n := 0
			for ; n < resident; n++ {
				c.Install(seqDigest(n), blocks)
			}
			ds := make([]Digest, jobPanels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range ds {
					ds[k] = seqDigest(n)
					n++
				}
				c.BeginJob(ds)
				for _, d := range ds {
					c.Install(d, blocks)
				}
			}
		})
	}
}

func TestPanelCacheConcurrent(t *testing.T) {
	// Hammer the cache from several goroutines under a tiny budget so
	// installs, handshakes and evictions interleave; the race detector is the
	// assertion.
	c := NewPanelCache(4 * PanelDataBytes(4, 2))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := dig(int64(g*1000 + i%13))
				if c.Get(d) == nil {
					c.Install(d, panelBlocks(4, 2, int64(i)))
				}
				if i%10 == 0 {
					c.BeginJob([]Digest{d, dig(int64(i))})
				}
				c.UnpinAll()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Snapshot(); st.Bytes > 4*PanelDataBytes(4, 2) {
		t.Fatalf("cache over budget after concurrent churn: %+v", st)
	}
}

func TestRegistry(t *testing.T) {
	a := randMatrix(2, 3, 4, 1)
	b := randMatrix(3, 2, 4, 2)
	jp := PanelsForJob(a, b)
	ds := jp.Digests()
	pb := jp.PanelBytes()

	r := NewRegistry()
	if f := r.Fraction(0, jp); f != 0 {
		t.Fatalf("empty registry fraction %v", f)
	}

	// Worker 0 holds half the job's panels.
	have := map[Digest]int64{ds[0]: pb, ds[1]: pb}
	r.Absorb(0, have, ds)
	if f := r.Fraction(0, jp); f != 0.5 {
		t.Fatalf("fraction %v, want 0.5", f)
	}
	if p, by := r.Resident(0); p != 2 || by != 2*pb {
		t.Fatalf("resident (%d, %d), want (2, %d)", p, by, 2*pb)
	}

	// A later job learns the worker no longer holds ds[1]: queried-but-absent
	// entries are dropped.
	r.Absorb(0, map[Digest]int64{ds[0]: pb}, ds)
	if f := r.Fraction(0, jp); f != 0.25 {
		t.Fatalf("fraction after partial absorb %v, want 0.25", f)
	}

	// Absorbing for one worker never touches another.
	r.Absorb(1, have, ds)
	r.Invalidate(0)
	if p, _ := r.Resident(0); p != 0 {
		t.Fatal("invalidate left residency behind")
	}
	if f := r.Fraction(1, jp); f != 0.5 {
		t.Fatalf("unrelated worker lost residency: %v", f)
	}
}

// TestRegistryIsBounded: panels nobody submits again are never queried again,
// so only the cap keeps a long-running daemon's registry from growing with
// every digest it ever shipped.
func TestRegistryIsBounded(t *testing.T) {
	r := NewRegistry()
	const perJob = 256
	var last []Digest
	for n := 0; n < 10*registryCap; n += perJob {
		have := make(map[Digest]int64, perJob)
		last = last[:0]
		for k := 0; k < perJob; k++ {
			have[seqDigest(n+k)] = 8
			last = append(last, seqDigest(n+k))
		}
		r.Absorb(0, have, last)
	}
	panels, bytes := r.Resident(0)
	if panels != registryCap || bytes != 8*registryCap {
		t.Fatalf("resident (%d, %d) after absorbing %d digests, want the cap (%d, %d)", panels, bytes, 10*registryCap, registryCap, 8*registryCap)
	}
	if set := r.res[0]; len(set.elems) != registryCap || set.order.Len() != registryCap {
		t.Fatalf("registry holds %d map entries and %d list entries, cap %d", len(set.elems), set.order.Len(), registryCap)
	}
	if f := r.Fraction(0, &JobPanels{ARows: last}); f != 1 {
		t.Errorf("the digests absorbed last score %v, want 1", f)
	}
	if f := r.Fraction(0, &JobPanels{ARows: []Digest{seqDigest(0)}}); f != 0 {
		t.Errorf("the digest absorbed first still scores %v", f)
	}

	// Absorbing a digest again makes it the newest, so traffic that keeps
	// using an operand keeps its panels however much passes through.
	r.Absorb(0, map[Digest]int64{last[0]: 8}, last[:1])
	for n := 0; n < registryCap-1; n++ {
		d := seqDigest(1<<40 + n)
		r.Absorb(0, map[Digest]int64{d: 8}, []Digest{d})
	}
	if f := r.Fraction(0, &JobPanels{ARows: last[:2]}); f != 0.5 {
		t.Errorf("fraction %v, want 0.5: the re-absorbed digest kept, its neighbour trimmed", f)
	}
}

// TestPanelDigestGolden pins the digest function: digests are content
// addresses shared by clients, daemons and worker caches across builds, so
// how a panel's bytes reach the hash may change, the digest may not.
func TestPanelDigestGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20080220))
	a := matrix.NewBlockMatrix(3, 4, 5)
	b := matrix.NewBlockMatrix(4, 2, 5)
	a.FillRandom(rng)
	b.FillRandom(rng)
	a.SetBlock(1, 2, nil) // an implicit zero block inside the hashed row
	row, col := RowPanelDigest(a, 1), ColPanelDigest(b, 1)
	if got, want := hex.EncodeToString(row[:]), goldenARow; got != want {
		t.Errorf("A row-panel digest %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(col[:]), goldenBCol; got != want {
		t.Errorf("B column-panel digest %s, want %s", got, want)
	}
}

const (
	goldenARow = "a6cad4ab8a64c533c667fc33cbaeefef"
	goldenBCol = "4b2b9eff22e2f42a54d7785b6edc907f"
)
