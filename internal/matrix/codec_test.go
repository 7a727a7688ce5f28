package matrix

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range []int{1, 2, 16, 80} {
		b := NewBlock(q)
		b.FillRandom(rng)
		var buf bytes.Buffer
		if err := new(BlockCodec).WriteBlock(&buf, b); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != BlockWireSize(q) {
			t.Errorf("q=%d: wire size %d, want %d", q, buf.Len(), BlockWireSize(q))
		}
		got, err := new(BlockCodec).ReadBlock(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Equal(got, 0) {
			t.Errorf("q=%d: round trip altered block", q)
		}
	}
}

func TestReadBlockBadMagic(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	if _, err := new(BlockCodec).ReadBlock(buf); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestReadBlockTruncated(t *testing.T) {
	b := NewBlock(4)
	var buf bytes.Buffer
	if err := new(BlockCodec).WriteBlock(&buf, b); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewBuffer(buf.Bytes()[:buf.Len()-5])
	if _, err := new(BlockCodec).ReadBlock(trunc); err == nil {
		t.Fatal("expected error on truncated payload")
	}
}

func TestBlocksListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7} {
		blocks := make([]*Block, n)
		for i := range blocks {
			blocks[i] = NewBlock(5)
			blocks[i].FillRandom(rng)
		}
		var buf bytes.Buffer
		if err := new(BlockCodec).WriteBlocks(&buf, blocks); err != nil {
			t.Fatal(err)
		}
		got, err := new(BlockCodec).ReadBlocks(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d blocks back", n, len(got))
		}
		for i := range blocks {
			if !blocks[i].Equal(got[i], 0) {
				t.Errorf("n=%d: block %d altered in round trip", n, i)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("n=%d: %d bytes left unread", n, buf.Len())
		}
	}
}

func TestReadBlocksRejectsHugeCount(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := new(BlockCodec).ReadBlocks(buf); err == nil {
		t.Fatal("expected error on implausible block count")
	}
}

// TestReadBlockHostileEdgeCostsWhatItShips feeds a block header claiming the
// largest accepted edge (2 GiB of payload) followed by a few bytes: the
// decode must fail having allocated in proportion to what arrived, not to the
// claim.
func TestReadBlockHostileEdgeCostsWhatItShips(t *testing.T) {
	frame := make([]byte, 8+100)
	binary.LittleEndian.PutUint32(frame[0:4], blockMagic)
	binary.LittleEndian.PutUint32(frame[4:8], 1<<14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := new(BlockCodec).ReadBlock(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 2 GiB block accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("hostile block header allocated %d bytes", grew)
	}
}

// TestBlockRoundTripColdLargeBlock covers the grow-as-bytes-arrive path a
// cold codec takes for a payload above coldScratch.
func TestBlockRoundTripColdLargeBlock(t *testing.T) {
	b := NewBlock(400) // 1.28 MB of payload
	b.FillRandom(rand.New(rand.NewSource(17)))
	var buf bytes.Buffer
	if err := new(BlockCodec).WriteBlock(&buf, b); err != nil {
		t.Fatal(err)
	}
	var dec BlockCodec
	for i := 0; i < 2; i++ { // cold, then warm through the same buffer
		got, err := dec.ReadBlock(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !b.Equal(got, 0) {
			t.Errorf("pass %d: round trip altered block", i)
		}
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 1 + rng.Intn(20)
		b := NewBlock(q)
		b.FillRandom(rng)
		var buf bytes.Buffer
		if err := new(BlockCodec).WriteBlock(&buf, b); err != nil {
			return false
		}
		got, err := new(BlockCodec).ReadBlock(&buf)
		return err == nil && b.Equal(got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// forcePortable runs f with the zero-staging path switched off, as on a
// big-endian host.
func forcePortable(t *testing.T, f func()) {
	t.Helper()
	if !hostLittleEndian {
		t.Skip("host is big-endian: the portable path is the only path")
	}
	hostLittleEndian = false
	defer func() { hostLittleEndian = true }()
	f()
}

// TestPortablePathMatchesInPlacePath pins the wire format to the conversion
// loop: the bytes a little-endian host writes straight from Block.Data are
// the bytes the portable encoder produces, and each side decodes the other's.
func TestPortablePathMatchesInPlacePath(t *testing.T) {
	b := NewBlock(7)
	b.FillRandom(rand.New(rand.NewSource(19)))
	b.Data[3] = math.Copysign(0, -1)
	b.Data[4] = math.Inf(1)
	var fast, portable bytes.Buffer
	if err := new(BlockCodec).WriteBlock(&fast, b); err != nil {
		t.Fatal(err)
	}
	forcePortable(t, func() {
		if err := new(BlockCodec).WriteBlock(&portable, b); err != nil {
			t.Fatal(err)
		}
		got, err := new(BlockCodec).ReadBlock(bytes.NewReader(fast.Bytes()))
		if err != nil || !bitwiseEqual(got, b) {
			t.Errorf("portable decode of in-place bytes: err=%v", err)
		}
	})
	if !bytes.Equal(fast.Bytes(), portable.Bytes()) {
		t.Fatal("in-place and portable encodings differ")
	}
	got, err := new(BlockCodec).ReadBlock(bytes.NewReader(portable.Bytes()))
	if err != nil || !bitwiseEqual(got, b) {
		t.Errorf("in-place decode of portable bytes: err=%v", err)
	}
}

func bitwiseEqual(a, b *Block) bool {
	if a == nil || b == nil || a.Q != b.Q {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestReadBlocksIntoDecodesInPlace: a list decoded into caller-owned blocks
// lands in exactly those blocks; a wrong count is refused with the
// destination untouched, a wrong edge before that block is written.
func TestReadBlocksIntoDecodesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src := []*Block{NewBlock(5), NewBlock(5), NewBlock(5)}
	for _, b := range src {
		b.FillRandom(rng)
	}
	var frame bytes.Buffer
	if err := new(BlockCodec).WriteBlocks(&frame, src); err != nil {
		t.Fatal(err)
	}
	for _, portable := range []bool{false, true} {
		dst := []*Block{NewBlock(5), NewBlock(5), NewBlock(5)}
		decode := func() {
			if err := new(BlockCodec).ReadBlocksInto(bytes.NewReader(frame.Bytes()), dst); err != nil {
				t.Fatal(err)
			}
		}
		if portable {
			forcePortable(t, decode)
		} else {
			decode()
		}
		for i := range src {
			if !bitwiseEqual(dst[i], src[i]) {
				t.Errorf("portable=%v: block %d differs after in-place decode", portable, i)
			}
		}
	}

	short := []*Block{NewBlock(5), NewBlock(5)}
	short[0].Data[0], short[1].Data[0] = 42, 43
	if err := new(BlockCodec).ReadBlocksInto(bytes.NewReader(frame.Bytes()), short); err == nil {
		t.Fatal("a 3-block list decoded into a 2-block destination")
	}
	if short[0].Data[0] != 42 || short[1].Data[0] != 43 {
		t.Error("a refused count still wrote into the destination")
	}

	mixed := []*Block{NewBlock(5), NewBlock(4), NewBlock(5)}
	mixed[1].Data[0] = 44
	if err := new(BlockCodec).ReadBlocksInto(bytes.NewReader(frame.Bytes()), mixed); err == nil {
		t.Fatal("a q=5 block decoded into a q=4 destination")
	}
	if mixed[1].Data[0] != 44 || mixed[2].Data[0] != 0 {
		t.Error("a refused edge still wrote into its block or past it")
	}
}

// TestReadBlockFailedReadReturnsPoolBlock: a pool block taken for a payload
// that then fails to arrive goes back to the pool.
func TestReadBlockFailedReadReturnsPoolBlock(t *testing.T) {
	var pool BlockPool
	mine := pool.Get(4)
	pool.Put(mine)
	var frame bytes.Buffer
	if err := new(BlockCodec).WriteBlock(&frame, NewBlock(4)); err != nil {
		t.Fatal(err)
	}
	dec := &BlockCodec{Pool: &pool}
	if _, err := dec.ReadBlock(bytes.NewReader(frame.Bytes()[:frame.Len()-3])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// sync.Pool may drop an entry under GC pressure, so only a different
	// non-fresh block would be wrong; getting ours back proves the Put.
	if got := pool.Get(4); got != mine {
		t.Skip("pool entry was dropped (GC); cannot observe the Put")
	}
}
