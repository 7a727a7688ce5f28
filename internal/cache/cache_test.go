package cache

import (
	"encoding/hex"
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
	if c.Install(d, panelBlocks(4, 2, 2)) {
		t.Fatal("duplicate install must not absorb")
	}
	got := c.Get(d)
	if len(got) != 2 || got[0] != first[0] {
		t.Fatal("duplicate install replaced the resident blocks")
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
