package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/matrix"
)

var testProto = Proto{Name: "test", Magic: 0x54535432, Max: 1 << 20} // "TST2"

// sample exercises every primitive once.
type sample struct {
	U8     uint8
	I32    int
	U64    uint64
	I64    int64
	F64    float64
	Bool   bool
	Raw    [3]byte
	Text   string
	Body   []byte
	Bits   []bool
	Rows   []cache.Digest
	Blocks []*matrix.Block
}

func (s *sample) fields(c *Codec) {
	c.U8(&s.U8)
	c.I32(&s.I32)
	c.U64(&s.U64)
	c.I64(&s.I64)
	c.F64(&s.F64)
	c.Bool(&s.Bool)
	c.Raw(s.Raw[:])
	c.String(&s.Text, 16)
	c.Bytes(&s.Body, 16)
	List(c, &s.Bits, 8, (*Codec).Bool)
	c.Digests(&s.Rows, 8)
	c.Blocks(&s.Blocks)
}

func readSample(t *testing.T, p Proto, frame []byte) (*sample, uint8, error) {
	t.Helper()
	kind, c, err := p.Begin(bytes.NewReader(frame), nil)
	if err != nil {
		return nil, 0, err
	}
	s := &sample{}
	s.fields(c)
	return s, kind, c.End()
}

func TestRoundTripEveryPrimitive(t *testing.T) {
	blk := matrix.NewBlock(3)
	blk.FillRandom(rand.New(rand.NewSource(1)))
	in := &sample{U8: 200, I32: -7, U64: 1 << 63, I64: -1 << 40, F64: -0.5, Bool: true,
		Raw: [3]byte{1, 2, 3}, Text: "héllo", Body: []byte{9, 8}, Bits: []bool{true, false, true},
		Rows: []cache.Digest{{1}, {2}}, Blocks: []*matrix.Block{blk}}
	var buf bytes.Buffer
	if err := testProto.Write(&buf, 5, nil, in.fields); err != nil {
		t.Fatal(err)
	}
	// The sizing walk and the writing walk must agree to the byte.
	if declared := binary.LittleEndian.Uint32(buf.Bytes()[5:9]); int(declared) != buf.Len()-HeaderLen {
		t.Errorf("header declares %d payload bytes, %d written", declared, buf.Len()-HeaderLen)
	}
	got, kind, err := readSample(t, testProto, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if kind != 5 {
		t.Errorf("kind %d, want 5", kind)
	}
	if got.Blocks[0].MaxAbsDiff(blk) != 0 {
		t.Error("block not bitwise identical")
	}
	got.Blocks, in.Blocks = nil, nil
	var a, b bytes.Buffer
	testProto.Write(&a, 5, nil, in.fields)
	testProto.Write(&b, 5, nil, got.fields)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("fields mangled: sent %+v got %+v", in, got)
	}

	// An empty frame round-trips too, and empty lists decode to nil.
	buf.Reset()
	if err := testProto.Write(&buf, 1, nil, (&sample{}).fields); err != nil {
		t.Fatal(err)
	}
	got, _, err = readSample(t, testProto, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Bits != nil || got.Rows != nil || got.Body != nil || got.Blocks != nil {
		t.Errorf("empty lists decoded non-nil: %+v", got)
	}
}

// TestWriterRefusesOversizeFrameBeforeWriting injects a small cap: the frame
// must be refused from its sized length alone, with nothing on the wire.
func TestWriterRefusesOversizeFrameBeforeWriting(t *testing.T) {
	small := Proto{Name: "test", Magic: testProto.Magic, Max: 64}
	in := &sample{Blocks: []*matrix.Block{matrix.NewBlock(4)}} // 136-byte block
	var buf bytes.Buffer
	err := small.Write(&buf, 1, nil, in.fields)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversize frame: err = %v, want a frame-limit refusal", err)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes written before the refusal", buf.Len())
	}
	// The reader enforces the same cap from the header alone.
	if err := testProto.Write(&buf, 1, nil, in.fields); err != nil {
		t.Fatal(err)
	}
	if _, _, err := small.Begin(&buf, nil); err == nil {
		t.Error("reader accepted a frame over its cap")
	}
}

// TestWriterEnforcesFieldCaps: a field over its cap fails the sizing walk, so
// again nothing is written — and the message is not touched.
func TestWriterEnforcesFieldCaps(t *testing.T) {
	in := &sample{Text: strings.Repeat("x", 17)}
	var buf bytes.Buffer
	if err := testProto.Write(&buf, 1, nil, in.fields); err == nil {
		t.Error("over-cap string encoded")
	}
	if buf.Len() != 0 || len(in.Text) != 17 {
		t.Errorf("refused frame wrote %d bytes / left the string %d long", buf.Len(), len(in.Text))
	}
}

func TestVersionAndMagicRefusal(t *testing.T) {
	hdr := make([]byte, HeaderLen)
	binary.LittleEndian.PutUint32(hdr, 0x54535431) // "TST1": same family, older version
	_, _, err := testProto.Begin(bytes.NewReader(hdr), nil)
	if err == nil || !strings.Contains(err.Error(), "protocol version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("old-version header: err = %v, want both versions named", err)
	}
	binary.LittleEndian.PutUint32(hdr, 0xdeadbeef)
	if _, _, err := testProto.Begin(bytes.NewReader(hdr), nil); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("foreign magic: err = %v", err)
	}
}

func TestTrailingBytesRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := testProto.Write(&buf, 1, nil, (&sample{}).fields); err != nil {
		t.Fatal(err)
	}
	frame := append(buf.Bytes(), 0xAA)
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(frame)-HeaderLen))
	if _, _, err := readSample(t, testProto, frame); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v", err)
	}
}

// TestHostileCountsCostWhatTheyShip: headers and counts that promise far more
// than the frame delivers are refused or run dry without an allocation sized
// by the promise.
func TestHostileCountsCostWhatTheyShip(t *testing.T) {
	big := Proto{Name: "test", Magic: testProto.Magic, Max: 1 << 30}
	frame := func(declared uint32, payload string) []byte {
		b, err := hex.DecodeString(payload)
		if err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, HeaderLen)
		binary.LittleEndian.PutUint32(hdr, big.Magic)
		hdr[4] = 1
		binary.LittleEndian.PutUint32(hdr[5:], declared)
		return append(hdr, b...)
	}
	cases := []struct {
		name   string
		fields func(*Codec)
		frame  []byte
	}{
		{"digest count beyond the frame", func(c *Codec) { var d []cache.Digest; c.Digests(&d, 1<<22) },
			frame(20, "00004000"+strings.Repeat("00", 16))},
		{"digest count within a lying frame length", func(c *Codec) { var d []cache.Digest; c.Digests(&d, 1<<22) },
			frame(1<<30, "00004000"+strings.Repeat("00", 16))},
		{"byte string within a lying frame length", func(c *Codec) { var b []byte; c.Bytes(&b, 1<<24) },
			frame(1<<30, "00000001"+"aabb")},
		{"bool list over its cap", func(c *Codec) { var b []bool; List(c, &b, 4, (*Codec).Bool) },
			frame(9, "05000000"+"0101010101")},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, c, err := big.Begin(bytes.NewReader(tc.frame), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tc.fields(c)
		err = c.End()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", tc.name, grew, len(tc.frame))
		}
	}
}

// TestBlocksDecodeInPlace: a decoding walk over a message whose block list is
// already filled lands the wire's blocks in the caller's, and refuses a list
// of another length without touching them.
func TestBlocksDecodeInPlace(t *testing.T) {
	src := []*matrix.Block{matrix.NewBlock(4), matrix.NewBlock(4)}
	for _, b := range src {
		b.FillRandom(rand.New(rand.NewSource(2)))
	}
	var buf bytes.Buffer
	if err := testProto.Write(&buf, 1, nil, func(c *Codec) { c.Blocks(&src) }); err != nil {
		t.Fatal(err)
	}
	decode := func(dst []*matrix.Block) error {
		_, c, err := testProto.Begin(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Blocks(&dst)
		return c.End()
	}
	mine := []*matrix.Block{matrix.NewBlock(4), matrix.NewBlock(4)}
	held := append([]*matrix.Block(nil), mine...)
	if err := decode(mine); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if mine[i] != held[i] || !mine[i].Equal(src[i], 0) {
			t.Errorf("block %d: not decoded into the caller's block", i)
		}
	}
	one := []*matrix.Block{matrix.NewBlock(4)}
	one[0].Data[0] = 7
	if err := decode(one); err == nil {
		t.Fatal("a 2-block list decoded into a 1-block destination")
	}
	if one[0].Data[0] != 7 {
		t.Error("a refused list still wrote into the destination")
	}
}
