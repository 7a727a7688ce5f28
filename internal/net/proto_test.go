package net

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
	"repro/internal/wire"
)

func digest(seed int64) cache.Digest {
	var d cache.Digest
	rand.New(rand.NewSource(seed)).Read(d[:])
	return d
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randBlocks(t testing.TB, n, q int, seed int64) []*matrix.Block {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Block, n)
	for i := range out {
		out[i] = matrix.NewBlock(q)
		out[i].FillRandom(rng)
	}
	return out
}

// protoTable is one message of every protocol kind — install in its three
// shapes: no refs, some panels resident, all resident — shared by the
// round-trip test and the fuzz seeds.
func protoTable(t testing.TB) []*Msg {
	ch := matrix.Chunk{Row0: 3, Col0: 7, H: 2, W: 4}
	aRefs := func(res ...bool) []PanelRef {
		return []PanelRef{{D: digest(4), Resident: res[0]}, {D: digest(5), Resident: res[1]}}
	}
	bRefs := func(res ...bool) []PanelRef {
		return []PanelRef{{D: digest(6), Resident: res[0]}, {D: digest(7), Resident: res[1]},
			{D: digest(6), Resident: res[2]}, {D: digest(8), Resident: res[3]}}
	}
	return []*Msg{
		{Kind: MsgHello, Name: "node-17", Kernel: "avx2", Heartbeat: 250 * time.Millisecond},
		{Kind: MsgChunk, Chunk: ch, Blocks: randBlocks(t, ch.Blocks(), 5, 1)},
		{Kind: MsgInstall, Chunk: ch, K0: 2, K1: 5, Blocks: randBlocks(t, 3*(ch.H+ch.W), 5, 2)},
		// 1 non-resident A row and 2 non-resident B columns at depth 3.
		{Kind: MsgInstall, Chunk: ch, K0: 2, K1: 5, T: 9,
			ARefs: aRefs(false, true), BRefs: bRefs(true, false, true, false), Blocks: randBlocks(t, 3+2*3, 5, 7)},
		{Kind: MsgInstall, Chunk: ch, K0: 2, K1: 5, T: 9,
			ARefs: aRefs(true, true), BRefs: bRefs(true, true, true, true)},
		{Kind: MsgFlush, Chunk: ch},
		{Kind: MsgCancel, Chunk: ch},
		{Kind: MsgResult, Chunk: ch, Blocks: randBlocks(t, ch.Blocks(), 5, 3)},
		{Kind: MsgHeartbeat},
		{Kind: MsgShutdown},
		{Kind: MsgRelease},
		{Kind: MsgHave, Digests: []cache.Digest{digest(1), digest(2), digest(3)}},
		{Kind: MsgHaveAck, CacheOn: true, HaveBits: []bool{true, false, true}},
		{Kind: MsgHaveAck, HaveBits: []bool{false, false}},
	}
}

func encode(t testing.TB, m *Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, m, nil); err != nil {
		t.Fatalf("write %s: %v", m.Kind, err)
	}
	return buf.Bytes()
}

// TestProtoRoundTripEveryKind encodes and decodes one message of every
// protocol kind and checks all fields survive bit-for-bit, and that the
// length the sizing walk declared is the length the writing walk produced.
func TestProtoRoundTripEveryKind(t *testing.T) {
	for _, m := range protoTable(t) {
		frame := encode(t, m)
		_, sized, err := proto.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if wrote := len(frame) - wire.HeaderLen; int(sized) != wrote {
			t.Errorf("%s: sized %d payload bytes, wrote %d", m.Kind, sized, wrote)
		}
		rd := bytes.NewReader(frame)
		got, err := ReadMsg(rd, nil)
		if err != nil {
			t.Fatalf("read %s: %v", m.Kind, err)
		}
		if rd.Len() != 0 {
			t.Fatalf("%s: %d bytes left after read", m.Kind, rd.Len())
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: mangled: sent %+v got %+v", m.Kind, m, got)
		}
	}
}

// TestProtoGoldenBytes pins each frame kind's layout as bytes, so a layout
// change is a reviewed diff of this table and never an accident. Every frame
// opens with the magic "2PMM" (MMP2, little-endian), the kind, and the u32
// payload length.
func TestProtoGoldenBytes(t *testing.T) {
	ch := matrix.Chunk{Row0: 1, Col0: 2, H: 1, W: 1}
	one := matrix.NewBlock(1)
	one.Data[0] = 1.5
	d := cache.Digest{0xd0, 0xd1, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xdb, 0xdc, 0xdd, 0xde, 0xdf}
	const (
		hdr      = "32504d4d"                                        // magic
		chunkHex = "01000000" + "02000000" + "01000000" + "01000000" // Row0 Col0 H W
		blockHex = "314b4c42" + "01000000" + "000000000000f83f"      // "BLK1", q=1, 1.5
		oneBlock = "01000000" + blockHex                             // count=1
		digHex   = "d0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
		noRefs   = "00000000" + "01000000" + "00000000" + "00000000" + "00000000" // K0=0 K1=1 T=0, 0 A refs, 0 B refs
	)
	golden := []struct {
		m   *Msg
		hex string
	}{
		{&Msg{Kind: MsgHello, Name: "w1", Kernel: "avx2", Heartbeat: time.Second},
			hdr + "01" + "16000000" + "00ca9a3b00000000" + "02000000" + "7731" + "04000000" + "61767832"},
		{&Msg{Kind: MsgChunk, Chunk: ch, Blocks: []*matrix.Block{one}}, hdr + "02" + "24000000" + chunkHex + oneBlock},
		{&Msg{Kind: MsgInstall, Chunk: ch, K0: 0, K1: 1, Blocks: []*matrix.Block{one, one}},
			hdr + "03" + "48000000" + chunkHex + noRefs + "02000000" + blockHex + blockHex},
		{&Msg{Kind: MsgInstall, Chunk: ch, K0: 0, K1: 1, T: 3, ARefs: []PanelRef{{D: d, Resident: true}}, BRefs: []PanelRef{{D: d}}, Blocks: []*matrix.Block{one}},
			hdr + "03" + "5a000000" + chunkHex + "00000000" + "01000000" + "03000000" + "01000000" + digHex + "01" + "01000000" + digHex + "00" + oneBlock},
		{&Msg{Kind: MsgFlush, Chunk: ch}, hdr + "04" + "10000000" + chunkHex},
		{&Msg{Kind: MsgResult, Chunk: ch, Blocks: []*matrix.Block{one}}, hdr + "05" + "24000000" + chunkHex + oneBlock},
		{&Msg{Kind: MsgHeartbeat}, hdr + "06" + "00000000"},
		{&Msg{Kind: MsgShutdown}, hdr + "07" + "00000000"},
		{&Msg{Kind: MsgRelease}, hdr + "08" + "00000000"},
		{&Msg{Kind: MsgHave, Digests: []cache.Digest{d}}, hdr + "09" + "14000000" + "01000000" + digHex},
		{&Msg{Kind: MsgHaveAck, CacheOn: true, HaveBits: []bool{true, false}}, hdr + "0a" + "07000000" + "01" + "02000000" + "0100"},
		{&Msg{Kind: MsgCancel, Chunk: ch}, hdr + "0b" + "10000000" + chunkHex},
	}
	seen := map[MsgKind]bool{}
	for _, g := range golden {
		seen[g.m.Kind] = true
		if got := hex.EncodeToString(encode(t, g.m)); got != g.hex {
			t.Errorf("%s frame layout changed:\n got %s\nwant %s", g.m.Kind, got, g.hex)
		}
	}
	for k := MsgHello; k <= MsgCancel; k++ {
		if !seen[k] {
			t.Errorf("no golden bytes for %s", k)
		}
	}
}

// TestProtoStreamOfMessages checks framing survives back-to-back messages on
// one stream, as the socket carries them.
func TestProtoStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	ch := matrix.Chunk{H: 1, W: 1}
	sent := []*Msg{
		{Kind: MsgChunk, Chunk: ch, Blocks: randBlocks(t, 1, 3, 4)},
		{Kind: MsgHeartbeat},
		{Kind: MsgInstall, Chunk: ch, K0: 0, K1: 1, Blocks: randBlocks(t, 2, 3, 5)},
		{Kind: MsgFlush, Chunk: ch},
	}
	for _, m := range sent {
		buf.Write(encode(t, m))
	}
	for i, want := range sent {
		got, err := ReadMsg(&buf, nil)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Kind != want.Kind {
			t.Fatalf("message %d: kind %s, want %s", i, got.Kind, want.Kind)
		}
	}
}

func TestProtoRejectsGarbage(t *testing.T) {
	if _, err := ReadMsg(bytes.NewReader([]byte("this is not a frame, not even close")), nil); err == nil {
		t.Error("garbage magic accepted")
	}
	frame := encode(t, &Msg{Kind: MsgChunk, Chunk: matrix.Chunk{H: 1, W: 1}, Blocks: randBlocks(t, 1, 4, 6)})
	if _, err := ReadMsg(bytes.NewReader(frame[:len(frame)-5]), nil); err == nil {
		t.Error("truncated frame accepted")
	}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{Kind: MsgKind(99)}, nil); err == nil || buf.Len() != 0 {
		t.Errorf("unknown kind encoded: err %v, %d bytes written", err, buf.Len())
	}
}

// TestProtoWriterRefusesOversizeFrame runs the real frame description under a
// small injected cap: the writer must refuse from the sized length alone,
// before a byte reaches the wire (it used to upload the frame in full and
// leave the refusal to the reader).
func TestProtoWriterRefusesOversizeFrame(t *testing.T) {
	small := wire.Proto{Name: "net", Magic: proto.Magic, Max: 1 << 10}
	m := &Msg{Kind: MsgChunk, Chunk: matrix.Chunk{H: 1, W: 1}, Blocks: randBlocks(t, 1, 16, 8)} // 2 KiB block
	var buf bytes.Buffer
	err := small.Write(&buf, uint8(m.Kind), nil, m.fields)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Errorf("oversize frame: err = %v, want a frame-limit refusal", err)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes written before the refusal", buf.Len())
	}
}

// oldVersionHeartbeat is a complete heartbeat frame of protocol version 1
// ("MMP1").
var oldVersionHeartbeat = []byte{0x31, 0x50, 0x4d, 0x4d, byte(MsgHeartbeat), 0, 0, 0, 0}

// TestProtoVersionRefusedOnBothEndpoints: a version-1 peer is refused at its
// first frame header with an error naming the versions — by a master dialing
// an old worker, and by a worker an old master dials.
func TestProtoVersionRefusedOnBothEndpoints(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // an old worker: registers with a version-1 frame
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(oldVersionHeartbeat)
	}()
	if _, err := DialWorker(ln.Addr().String(), nil); err == nil || !strings.Contains(err.Error(), "protocol version 1") {
		t.Errorf("master dialing an old worker: err = %v, want the version named", err)
	}

	master, worker := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(worker, "new", WorkerOptions{}) }()
	go func() { // an old master: swallows the hello, then speaks version 1
		if _, err := ReadMsg(master, nil); err == nil {
			master.Write(oldVersionHeartbeat)
		}
	}()
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "protocol version 1") {
			t.Errorf("worker dialed by an old master: err = %v, want the version named", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker kept serving an old master")
	}
	master.Close()
}

// FuzzReadMsg feeds arbitrary bytes to the frame decoder: it must never
// panic, a frame that decodes must re-encode to bytes that decode to an equal
// message, and the heap it costs is bounded by a constant plus a small
// multiple of the input — lengths and counts off the wire never size an
// allocation on their own.
func FuzzReadMsg(f *testing.F) {
	for _, m := range protoTable(f) {
		f.Add(encode(f, m))
	}
	f.Add(oldVersionHeartbeat)
	// 30 hostile bytes: a 1 GiB frame, 4M digests.
	f.Add(append([]byte{0x32, 0x50, 0x4d, 0x4d, byte(MsgHave), 0, 0, 0, 0x40, 0, 0, 0x40, 0}, make([]byte, 17)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadMsg(bytes.NewReader(data), nil)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+16*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		// Equal messages are compared through their canonical encoding:
		// block payloads may hold NaNs, which no == agrees on.
		frame := encode(t, m)
		again, err := ReadMsg(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("re-encoded %s frame does not decode: %v", m.Kind, err)
		}
		if !bytes.Equal(encode(t, again), frame) {
			t.Fatalf("%s: re-encode changed the message: %+v → %+v", m.Kind, m, again)
		}
		if len(m.Blocks) == 0 {
			return
		}
		// The same frame through the wire layer's in-place path (a block list
		// the reader pre-filled): the right shapes take the same message, one
		// block too many is refused.
		readInto := func(dst []*matrix.Block) (*Msg, error) {
			kind, c, err := proto.Begin(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatal(err)
			}
			into := &Msg{Kind: MsgKind(kind), Blocks: dst}
			into.fields(c)
			return into, c.End()
		}
		own := make([]*matrix.Block, len(m.Blocks), len(m.Blocks)+1)
		for i, b := range m.Blocks {
			own[i] = matrix.NewBlock(b.Q)
		}
		inPlace, err := readInto(own)
		if err != nil {
			t.Fatalf("%s: in-place decode: %v", m.Kind, err)
		}
		if inPlace.Blocks[0] != own[0] || !bytes.Equal(encode(t, inPlace), frame) {
			t.Fatalf("%s: in-place decode changed the message or left the reader's blocks", m.Kind)
		}
		if _, err := readInto(append(own, matrix.NewBlock(1))); err == nil {
			t.Fatalf("%s: %d blocks decoded into a %d-block destination", m.Kind, len(m.Blocks), len(own)+1)
		}
	})
}
