package matrix

import (
	"bytes"
	"encoding/binary"
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
