package matrix

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// fuzzBlock builds a q×q block whose elements are the raw float64 bit
// patterns carried in data (cycled and padded when short). Negative zeros,
// denormals and infinities all stay: IEEE-754 multiply and add treat them
// deterministically, so they are part of the bitwise contract — including
// NaNs the arithmetic itself produces (0·∞, ∞−∞ yield the one indefinite
// QNaN). Only NaN *inputs* are bent finite (clearing an exponent bit): which
// operand's payload an add propagates follows instruction operand order,
// which the contract deliberately does not pin.
func fuzzBlock(q int, data []byte, off int) *Block {
	b := NewBlock(q)
	for i := range b.Data {
		var word [8]byte
		for j := range word {
			if len(data) > 0 {
				word[j] = data[(off+8*i+j)%len(data)]
			}
		}
		bits := binary.LittleEndian.Uint64(word[:])
		if v := math.Float64frombits(bits); v != v {
			bits &^= 1 << 62
		}
		b.Data[i] = math.Float64frombits(bits)
	}
	return b
}

// FuzzMulAdd feeds arbitrary operand bit patterns through the dispatched
// MulAdd/MulSub and cross-checks both against the naive oracle bitwise —
// the fuzzing counterpart of internal/kernel's fixed-edge suites.
func FuzzMulAdd(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(4), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x80, 0x01})
	f.Add(uint8(7), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0}) // +Inf seed
	f.Add(uint8(12), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, qSeed uint8, data []byte) {
		q := 1 + int(qSeed)%13
		a := fuzzBlock(q, data, 0)
		b := fuzzBlock(q, data, 3)
		c0 := fuzzBlock(q, data, 5)

		got, want := c0.Clone(), c0.Clone()
		MulAdd(got, a, b)
		MulAddRef(want, a, b)
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("q=%d: MulAdd element %d: ref %x, kernel %x",
					q, i, math.Float64bits(want.Data[i]), math.Float64bits(got.Data[i]))
			}
		}

		got, want = c0.Clone(), c0.Clone()
		MulSub(got, a, b)
		mulSubRef(want, a, b)
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("q=%d: MulSub element %d: ref %x, kernel %x",
					q, i, math.Float64bits(want.Data[i]), math.Float64bits(got.Data[i]))
			}
		}
	})
}

// mulSubRef is the naive ijk oracle for MulSub, mirroring MulAddRef.
func mulSubRef(c, a, b *Block) {
	q := c.Q
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			s := c.Data[i*q+j]
			for k := 0; k < q; k++ {
				s -= a.Data[i*q+k] * b.Data[k*q+j]
			}
			c.Data[i*q+j] = s
		}
	}
}

// TestMulSubMatchesNaive pins the dispatched MulSub to the oracle bitwise on
// the edges MulAdd's sibling test sweeps (the dense-path rewrite dropped the
// old aik==0 skip branch; results must not move at all).
func TestMulSubMatchesNaive(t *testing.T) {
	for _, q := range []int{1, 2, 3, 8, 17, 32, 80} {
		a := fuzzBlock(q, []byte{0x13, 0x57, 0x9b, 0xdf, 0x24, 0x68, 0xac}, 0)
		b := fuzzBlock(q, []byte{0x31, 0x41, 0x59, 0x26, 0x53, 0x58, 0x97, 0x93}, 1)
		c1 := fuzzBlock(q, []byte{0x27, 0x18, 0x28, 0x18, 0x28, 0x45}, 2)
		c2 := c1.Clone()
		MulSub(c1, a, b)
		mulSubRef(c2, a, b)
		for i := range c1.Data {
			if math.Float64bits(c1.Data[i]) != math.Float64bits(c2.Data[i]) {
				t.Fatalf("q=%d: MulSub deviates from oracle at element %d", q, i)
			}
		}
	}
}

// FuzzBlockCodec feeds arbitrary bytes to every way a block list is decoded —
// cold, pooled, and in place into caller-owned blocks of the right and of the
// wrong shape. None may panic; heap growth is bounded by a constant plus a
// small multiple of the input; whatever is accepted re-encodes to the bytes
// it was decoded from; the decoders agree with each other; and a refused
// count or edge leaves the destination as it was.
func FuzzBlockCodec(f *testing.F) {
	list := func(q, n int) []byte {
		blocks := make([]*Block, n)
		for i := range blocks {
			blocks[i] = fuzzBlock(q, []byte{0x40, 0x09, 0x21, 0xfb, byte(i)}, i)
		}
		var buf bytes.Buffer
		if err := new(BlockCodec).WriteBlocks(&buf, blocks); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(list(3, 2))
	f.Add(list(1, 1))
	f.Add(list(2, 0))
	f.Add(list(4, 3)[:100])                                                   // truncated mid-payload
	f.Add([]byte{1, 0, 0, 0, 0x31, 0x4b, 0x4c, 0x42, 0, 0x40, 0, 0, 1, 2, 3}) // largest edge, 3 bytes of payload
	f.Add([]byte{1, 0, 0, 0, 0x31, 0x4b, 0x4c, 0x42, 0x6a, 1, 0, 0})          // q=362: the largest up-front block
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                     // implausible count
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(4<<20 + 16*len(data))
		measured := func(what string, decode func()) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode()
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
				t.Fatalf("%s decode of %d bytes allocated %d (limit %d)", what, len(data), grew, limit)
			}
		}
		encode := func(blocks []*Block) []byte {
			var buf bytes.Buffer
			if err := new(BlockCodec).WriteBlocks(&buf, blocks); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}

		var cold, pooled []*Block
		var coldErr, pooledErr error
		measured("cold", func() { cold, coldErr = new(BlockCodec).ReadBlocks(bytes.NewReader(data)) })
		measured("pooled", func() { pooled, pooledErr = (&BlockCodec{Pool: &BlockPool{}}).ReadBlocks(bytes.NewReader(data)) })
		if (coldErr == nil) != (pooledErr == nil) {
			t.Fatalf("cold decode: %v; pooled decode: %v", coldErr, pooledErr)
		}
		if coldErr != nil {
			// Whatever was wrong with it, decoding it in place must not panic.
			measured("in-place", func() { new(BlockCodec).ReadBlocksInto(bytes.NewReader(data), []*Block{NewBlock(2)}) })
			return
		}
		frame := encode(cold)
		if len(frame) > len(data) || !bytes.Equal(frame, data[:len(frame)]) {
			t.Fatalf("%d accepted blocks re-encode to other bytes than they were decoded from", len(cold))
		}
		if !bytes.Equal(encode(pooled), frame) {
			t.Fatal("pooled and cold decodes disagree")
		}
		// The conversion loop a big-endian host runs reads the same blocks.
		host := hostLittleEndian
		hostLittleEndian = false
		portable, err := new(BlockCodec).ReadBlocks(bytes.NewReader(data))
		hostLittleEndian = host
		if err != nil || !bytes.Equal(encode(portable), frame) {
			t.Fatalf("portable decode disagrees with the in-place one (err %v)", err)
		}

		// In place, into blocks of exactly the decoded shapes.
		dst := make([]*Block, len(cold))
		for i, b := range cold {
			dst[i] = NewBlock(b.Q)
		}
		measured("in-place", func() { err = new(BlockCodec).ReadBlocksInto(bytes.NewReader(data), dst) })
		if err != nil {
			t.Fatalf("in-place decode into the right shapes: %v", err)
		}
		if !bytes.Equal(encode(dst), frame) {
			t.Fatal("in-place and cold decodes disagree")
		}

		// A destination of another length: refused, untouched.
		sentinel := func(b *Block) *Block {
			for i := range b.Data {
				b.Data[i] = 42
			}
			return b
		}
		untouched := func(b *Block) bool {
			for _, v := range b.Data {
				if v != 42 {
					return false
				}
			}
			return true
		}
		longer := make([]*Block, len(cold)+1)
		for i := range longer {
			longer[i] = sentinel(NewBlock(1))
		}
		if err := new(BlockCodec).ReadBlocksInto(bytes.NewReader(data), longer); err == nil {
			t.Fatalf("a %d-block list decoded into a %d-block destination", len(cold), len(longer))
		}
		for _, b := range longer {
			if !untouched(b) {
				t.Fatal("a refused count still wrote into the destination")
			}
		}
		// A block of another edge: refused before it — or anything after it —
		// is written.
		if n := len(cold); n > 0 {
			for i, b := range cold {
				dst[i] = sentinel(NewBlock(b.Q))
			}
			dst[n-1] = sentinel(NewBlock(cold[n-1].Q + 1))
			if err := new(BlockCodec).ReadBlocksInto(bytes.NewReader(data), dst); err == nil {
				t.Fatal("a block decoded into a destination of another edge")
			}
			if !untouched(dst[n-1]) {
				t.Fatal("a refused edge still wrote into its block")
			}
		}
	})
}
