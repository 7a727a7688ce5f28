package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"log/slog"
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

func protoBlocks(n, q int, seed int64) []*matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Block, n)
	for i := range out {
		out[i] = matrix.NewBlock(q)
		out[i].FillRandom(rng)
	}
	return out
}

// clientProtoTable is one frame of every client protocol kind — submit as
// {no digests, digests} × every class — shared by the round-trip test and the
// fuzz seeds.
func clientProtoTable() []*clientMsg {
	msgs := []*clientMsg{
		{Kind: cAccept, ID: 42},
		{Kind: cResult, ID: 42, Blocks: protoBlocks(6, 4, 2)},
		{Kind: cError, ID: 7, Err: "no workers left"},
		{Kind: cStatus},
		{Kind: cStats, Stats: []byte(`{"queued":0}`)},
		{Kind: cCancel, ID: 9},
		{Kind: cJoin, Addr: "10.0.0.7:9801", SpecC: 1.5, SpecW: 0.25, SpecM: 60},
		{Kind: cTrace, ID: 11},
		{Kind: cTraceData, ID: 11, Stats: []byte(`{"events":[]}`)},
	}
	rows, cols := []cache.Digest{{1}, {2}}, []cache.Digest{{3}, {4}, {5}}
	for class := JobClass(0); class < numClasses; class++ {
		plain := &clientMsg{Kind: cSubmit, R: 2, S: 3, T: 2, Q: 4, Class: class, Blocks: protoBlocks(2*2+2*3+2*3, 4, 1)}
		withDigests := *plain
		withDigests.Rows, withDigests.Cols = rows, cols
		msgs = append(msgs, plain, &withDigests)
	}
	return msgs
}

func encodeClient(t testing.TB, m *clientMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeClientMsg(&buf, m, nil); err != nil {
		t.Fatalf("%s: write: %v", m.Kind, err)
	}
	return buf.Bytes()
}

// TestClientProtoRoundTrip encodes and decodes one frame of every client
// protocol kind and checks all fields survive bit-for-bit, and that the
// length the sizing walk declared is the length the writing walk produced.
func TestClientProtoRoundTrip(t *testing.T) {
	for _, m := range clientProtoTable() {
		frame := encodeClient(t, m)
		_, sized, err := clientProto.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if wrote := len(frame) - wire.HeaderLen; int(sized) != wrote {
			t.Errorf("%s: sized %d payload bytes, wrote %d", m.Kind, sized, wrote)
		}
		rd := bytes.NewReader(frame)
		got, err := readClientMsg(rd, nil)
		if err != nil {
			t.Fatalf("%s: read: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: mangled: sent %+v got %+v", m.Kind, m, got)
		}
		if rd.Len() != 0 {
			t.Errorf("%s: %d trailing bytes after decode", m.Kind, rd.Len())
		}
	}
}

// TestClientProtoGoldenBytes pins each client frame kind's layout as bytes,
// so a layout change is a reviewed diff of this table and never an accident.
// Every frame opens with the magic "2SMM" (MMS2, little-endian), the kind,
// and the u32 payload length.
func TestClientProtoGoldenBytes(t *testing.T) {
	one := matrix.NewBlock(1)
	one.Data[0] = 1.5
	d := cache.Digest{0xd0, 0xd1, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xdb, 0xdc, 0xdd, 0xde, 0xdf}
	const (
		hdr      = "32534d4d"                                        // magic
		dims     = "01000000" + "01000000" + "01000000" + "01000000" // R S T Q
		blockHex = "314b4c42" + "01000000" + "000000000000f83f"      // "BLK1", q=1, 1.5
		digHex   = "d0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
		id       = "2a00000000000000" // 42
	)
	abc := []*matrix.Block{one, one, one}
	golden := []struct {
		m   *clientMsg
		hex string
	}{
		{&clientMsg{Kind: cSubmit, R: 1, S: 1, T: 1, Q: 1, Blocks: abc},
			hdr + "01" + "4d000000" + dims + "00" + "00000000" + "00000000" + "03000000" + blockHex + blockHex + blockHex},
		{&clientMsg{Kind: cSubmit, R: 1, S: 1, T: 1, Q: 1, Class: ClassBatch, Rows: []cache.Digest{d}, Cols: []cache.Digest{d}, Blocks: abc},
			hdr + "01" + "6d000000" + dims + "02" + "01000000" + digHex + "01000000" + digHex + "03000000" + blockHex + blockHex + blockHex},
		{&clientMsg{Kind: cAccept, ID: 42}, hdr + "02" + "08000000" + id},
		{&clientMsg{Kind: cResult, ID: 42, Blocks: []*matrix.Block{one}}, hdr + "03" + "1c000000" + id + "01000000" + blockHex},
		{&clientMsg{Kind: cError, ID: 42, Err: "no"}, hdr + "04" + "0e000000" + id + "02000000" + "6e6f"},
		{&clientMsg{Kind: cStatus}, hdr + "05" + "00000000"},
		{&clientMsg{Kind: cStats, Stats: []byte("{}")}, hdr + "06" + "06000000" + "02000000" + "7b7d"},
		{&clientMsg{Kind: cCancel, ID: 42}, hdr + "07" + "08000000" + id},
		{&clientMsg{Kind: cJoin, Addr: "h:1", SpecC: 1.5, SpecW: 2, SpecM: 60},
			hdr + "08" + "1b000000" + "03000000" + "683a31" + "000000000000f83f" + "0000000000000040" + "3c000000"},
		{&clientMsg{Kind: cTrace, ID: 42}, hdr + "09" + "08000000" + id},
		{&clientMsg{Kind: cTraceData, ID: 42, Stats: []byte("{}")}, hdr + "0a" + "0e000000" + id + "02000000" + "7b7d"},
	}
	seen := map[clientKind]bool{}
	for _, g := range golden {
		seen[g.m.Kind] = true
		if got := hex.EncodeToString(encodeClient(t, g.m)); got != g.hex {
			t.Errorf("%s frame layout changed:\n got %s\nwant %s", g.m.Kind, got, g.hex)
		}
	}
	for k := cSubmit; k <= cTraceData; k++ {
		if !seen[k] {
			t.Errorf("no golden bytes for %s", k)
		}
	}
}

// TestClientProtoRejectsGarbage checks the decoder fails cleanly on junk.
func TestClientProtoRejectsGarbage(t *testing.T) {
	if _, err := readClientMsg(bytes.NewReader([]byte("not a frame at all")), nil); err == nil {
		t.Error("garbage accepted as a client frame")
	}
	raw := encodeClient(t, &clientMsg{Kind: cAccept, ID: 1})
	raw[4] = 200 // unknown kind
	if _, err := readClientMsg(bytes.NewReader(raw), nil); err == nil {
		t.Error("unknown frame kind accepted")
	}
}

// TestClientProtoDescribingAFrameNeverMutatesIt: an over-long error text is
// refused by the writer, not silently cut as a side effect of sizing the
// frame; truncation belongs to whoever builds the reply (handleClient's
// fail).
func TestClientProtoDescribingAFrameNeverMutatesIt(t *testing.T) {
	m := &clientMsg{Kind: cError, ID: 1, Err: strings.Repeat("x", maxErrLen+1)}
	var buf bytes.Buffer
	if err := writeClientMsg(&buf, m, nil); err == nil {
		t.Error("over-cap error text encoded")
	}
	if len(m.Err) != maxErrLen+1 || buf.Len() != 0 {
		t.Errorf("refused frame left Err %d bytes long and wrote %d bytes", len(m.Err), buf.Len())
	}
}

// oldClientStatus is a complete status frame of client protocol version 1
// ("MMS1").
var oldClientStatus = []byte{0x31, 0x53, 0x4d, 0x4d, byte(cStatus), 0, 0, 0, 0}

// TestClientProtoVersionRefusedOnBothEndpoints: a version-1 peer is refused
// at its first frame header with an error naming the versions — by a client
// talking to an old daemon, and by the daemon an old client dials.
func TestClientProtoVersionRefusedOnBothEndpoints(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // an old daemon: answers whatever arrives with a version-1 frame
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.ReadFull(conn, make([]byte, wire.HeaderLen)) // the whole status request
		conn.Write(oldClientStatus)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := FetchStatsContext(ctx, ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "protocol version 1") {
		t.Errorf("client of an old daemon: err = %v, want the version named", err)
	}

	var logged bytes.Buffer
	s := &Server{log: slog.New(slog.NewTextHandler(&logged, nil))}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { s.handleClient(server); close(done) }()
	client.Write(oldClientStatus)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon kept serving an old client")
	}
	client.Close()
	if !strings.Contains(logged.String(), "protocol version 1") {
		t.Errorf("daemon refusing an old client logged %q, want the version named", logged.String())
	}
}

// FuzzReadClientMsg feeds arbitrary bytes to the client frame decoder: it
// must never panic, a frame that decodes must re-encode to bytes that decode
// to an equal message, and the heap it costs is bounded by a constant plus a
// small multiple of the input — lengths and counts off the wire never size an
// allocation on their own.
func FuzzReadClientMsg(f *testing.F) {
	for _, m := range clientProtoTable() {
		f.Add(encodeClient(f, m))
	}
	f.Add(oldClientStatus)
	// A 2 GiB submit frame promising 4M row digests, 30 bytes long.
	f.Add(append([]byte{0x32, 0x53, 0x4d, 0x4d, byte(cSubmit), 0, 0, 0, 0x80}, make([]byte, 21)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := readClientMsg(bytes.NewReader(data), nil)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+16*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		// Equal messages are compared through their canonical encoding:
		// block payloads may hold NaNs, which no == agrees on.
		frame := encodeClient(t, m)
		again, err := readClientMsg(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("re-encoded %s frame does not decode: %v", m.Kind, err)
		}
		if !bytes.Equal(encodeClient(t, again), frame) {
			t.Fatalf("%s: re-encode changed the message: %+v → %+v", m.Kind, m, again)
		}
		if len(m.Blocks) == 0 {
			return
		}
		// The way SubmitProduct reads its result: into a list the caller
		// pre-filled. The right shapes take the same message in place; one
		// block too many is refused.
		own := make([]*matrix.Block, len(m.Blocks), len(m.Blocks)+1)
		for i, b := range m.Blocks {
			own[i] = matrix.NewBlock(b.Q)
		}
		inPlace := &clientMsg{Blocks: own}
		if err := readClientMsgInto(bytes.NewReader(frame), nil, inPlace); err != nil {
			t.Fatalf("%s: in-place decode: %v", m.Kind, err)
		}
		if inPlace.Blocks[0] != own[0] || !bytes.Equal(encodeClient(t, inPlace), frame) {
			t.Fatalf("%s: in-place decode changed the message or left the caller's blocks", m.Kind)
		}
		if err := readClientMsgInto(bytes.NewReader(frame), nil, &clientMsg{Blocks: append(own, matrix.NewBlock(1))}); err == nil {
			t.Fatalf("%s: %d blocks decoded into a %d-block destination", m.Kind, len(m.Blocks), len(own)+1)
		}
	})
}

// TestMatrixFromBlocksValidates covers the reassembly guards.
func TestMatrixFromBlocksValidates(t *testing.T) {
	if _, err := matrixFromBlocks(2, 2, 4, make([]*matrix.Block, 3)); err == nil {
		t.Error("wrong block count accepted")
	}
	bad := []*matrix.Block{matrix.NewBlock(4), matrix.NewBlock(8)}
	if _, err := matrixFromBlocks(1, 2, 4, bad); err == nil {
		t.Error("block edge mismatch accepted")
	}
}
