// Package wire owns the frame mechanics shared by the worker protocol
// (internal/net) and the client protocol (internal/serve): the
// magic+kind+u32-length header, the payload cap on both the writing and the
// reading side, the reader bounded to the declared payload with its
// trailing-bytes check, and the bounded field primitives frames are made of.
//
// A protocol describes each frame kind's fields exactly once, as a function
// that visits them in wire order on a Codec — c.I32(&m.K0),
// c.Digests(&m.Rows, max), c.Blocks(&m.Blocks). The same walk sizes the frame
// (so the length prefix goes out first and block payloads stream through the
// caller's matrix.BlockCodec, never staged in a frame-sized buffer), writes
// it, and reads it back: no layout is written down twice.
//
// Decoding trusts nothing it has not received: a length or count read off the
// wire is refused when it exceeds the field's cap or the bytes left in the
// frame, and lists and byte strings grow as their bytes actually arrive, so a
// hostile header costs only what it ships.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/cache"
	"repro/internal/matrix"
)

// HeaderLen is the fixed size of every frame's magic+kind+length prefix.
const HeaderLen = 9

// Proto identifies one framed protocol.
type Proto struct {
	Name string // error prefix, e.g. "net"
	// Magic opens every frame: the protocol family in the upper three bytes,
	// the version digit in the lowest. Peers of another version are refused at
	// their first header instead of being mis-decoded.
	Magic uint32
	Max   int64 // payload cap, enforced before writing and before reading
}

// ParseHeader decodes a frame prefix, refusing a foreign magic, another
// protocol version (named in the error) and a payload over the cap.
func (p Proto) ParseHeader(hdr []byte) (kind uint8, payload uint32, err error) {
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != p.Magic {
		if m>>8 == p.Magic>>8 {
			return 0, 0, fmt.Errorf("%s: peer speaks protocol version %c, this build speaks version %c; restart both ends on one build", p.Name, byte(m), byte(p.Magic))
		}
		return 0, 0, fmt.Errorf("%s: bad frame magic %#x", p.Name, m)
	}
	payload = binary.LittleEndian.Uint32(hdr[5:9])
	if int64(payload) > p.Max {
		return 0, 0, fmt.Errorf("%s: implausible frame payload %d bytes", p.Name, payload)
	}
	return hdr[4], payload, nil
}

// Write frames one message: fields is walked once to size the payload — a
// frame over the cap is refused before a byte is written, so the u32 length
// can never wrap — and once more to stream it to w after the header. Block
// payloads are staged through bc (nil: a one-shot codec).
func (p Proto) Write(w io.Writer, kind uint8, bc *matrix.BlockCodec, fields func(*Codec)) error {
	c := &Codec{bc: bc}
	fields(c)
	if c.err != nil {
		return fmt.Errorf("%s: %w", p.Name, c.err)
	}
	if c.n > p.Max {
		return fmt.Errorf("%s: frame payload %d bytes exceeds the %d-byte frame limit", p.Name, c.n, p.Max)
	}
	binary.LittleEndian.PutUint32(c.buf[0:4], p.Magic)
	c.buf[4] = kind
	binary.LittleEndian.PutUint32(c.buf[5:9], uint32(c.n))
	c.mode, c.w = writing, w
	c.write(c.buf[:])
	fields(c)
	if c.err != nil {
		return fmt.Errorf("%s: write frame: %w", p.Name, c.err)
	}
	return nil
}

// Begin reads one frame header from r and returns the frame's kind and a
// Codec that decodes its payload straight off the stream, bounded to the
// declared length. The caller walks the kind's fields, then calls End.
func (p Proto) Begin(r io.Reader, bc *matrix.BlockCodec) (uint8, *Codec, error) {
	c := &Codec{mode: reading, bc: bc}
	if _, err := io.ReadFull(r, c.buf[:]); err != nil {
		return 0, nil, fmt.Errorf("%s: read frame header: %w", p.Name, err)
	}
	kind, n, err := p.ParseHeader(c.buf[:])
	if err != nil {
		return 0, nil, err
	}
	c.lr = io.LimitedReader{R: r, N: int64(n)}
	return kind, c, nil
}

// End reports the first error of a decoding walk, or the bytes the walk left
// unread in the frame. Either way framing is lost and the session must end,
// so the remainder is not consumed.
func (c *Codec) End() error {
	if c.err == nil && c.lr.N != 0 {
		return fmt.Errorf("frame has %d trailing bytes", c.lr.N)
	}
	return c.err
}

type mode uint8

const (
	sizing mode = iota
	writing
	reading
)

// Codec is one walk over a frame's fields. Every field method takes a pointer
// to the message field: sizing and writing only load it, reading stores it.
// The first error sticks and turns the rest of the walk into a no-op.
type Codec struct {
	mode mode
	n    int64              // sizing: payload bytes so far
	w    io.Writer          // writing
	lr   io.LimitedReader   // reading: what is left of the frame
	bc   *matrix.BlockCodec // nil until a one-shot frame first moves blocks
	err  error
	buf  [HeaderLen]byte // the frame header, then one fixed-width field at a time
}

// Fail aborts the walk; frame descriptions call it for a kind they do not
// know, so such a frame is neither sized, written nor decoded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) write(b []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
}

// Raw moves len(b) bytes of fixed-size data (a digest, say) in place.
func (c *Codec) Raw(b []byte) {
	switch c.mode {
	case sizing:
		c.n += int64(len(b))
	case writing:
		c.write(b)
	case reading:
		if c.err == nil {
			_, c.err = io.ReadFull(&c.lr, b)
		}
	}
}

// word moves one little-endian unsigned field of width bytes and returns its
// value: v when encoding, the wire's when decoding.
func (c *Codec) word(width int, v uint64) uint64 {
	if c.mode != reading {
		binary.LittleEndian.PutUint64(c.buf[:8], v)
	}
	c.Raw(c.buf[:width])
	if c.mode != reading || c.err != nil {
		return v
	}
	clear(c.buf[width:8])
	return binary.LittleEndian.Uint64(c.buf[:8])
}

func (c *Codec) U8(v *uint8) {
	if x := c.word(1, uint64(*v)); c.mode == reading {
		*v = uint8(x)
	}
}

// I32 moves an int as a signed 32-bit field.
func (c *Codec) I32(v *int) {
	if x := c.word(4, uint64(uint32(*v))); c.mode == reading {
		*v = int(int32(x))
	}
}

func (c *Codec) U64(v *uint64) {
	if x := c.word(8, *v); c.mode == reading {
		*v = x
	}
}

func (c *Codec) I64(v *int64) {
	if x := c.word(8, uint64(*v)); c.mode == reading {
		*v = int64(x)
	}
}

func (c *Codec) F64(v *float64) {
	if x := c.word(8, math.Float64bits(*v)); c.mode == reading {
		*v = math.Float64frombits(x)
	}
}

func (c *Codec) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if x = c.word(1, x); c.mode == reading {
		*v = x != 0
	}
}

// count moves a u32 element count and returns how many elements to walk:
// have when encoding, the wire's count when decoding. Either side refuses
// more than max elements; the decoder also refuses more elements than the
// frame has bytes left, each being at least one byte.
func (c *Codec) count(have, max int) int {
	n := int(c.word(4, uint64(have)))
	switch {
	case c.err != nil:
	case n > max:
		c.Fail(fmt.Errorf("list of %d elements exceeds the field's limit of %d", n, max))
	case c.mode == reading && int64(n) > c.lr.N:
		c.Fail(fmt.Errorf("list of %d elements cannot fit in the %d bytes left in the frame", n, c.lr.N))
	default:
		return n
	}
	return 0
}

// Bytes moves a u32-length-prefixed byte string of at most max bytes. An
// empty string decodes to nil.
func (c *Codec) Bytes(v *[]byte, max int) {
	n := c.count(len(*v), max)
	if c.mode != reading {
		c.Raw(*v)
		return
	}
	if n == 0 {
		return
	}
	// Grow with the bytes that arrive rather than allocating the declared
	// length up front.
	var b bytes.Buffer
	if _, err := io.CopyN(&b, &c.lr, int64(n)); err != nil {
		c.Fail(err)
		return
	}
	*v = b.Bytes()
}

// String moves a u32-length-prefixed string of at most max bytes.
func (c *Codec) String(v *string, max int) {
	var b []byte
	if c.mode != reading {
		b = []byte(*v)
	}
	if c.Bytes(&b, max); c.mode == reading && c.err == nil {
		*v = string(b)
	}
}

// listStep bounds how many list elements a decode allocates ahead of the
// bytes that back them.
const listStep = 1024

// List moves a u32-count-prefixed list of at most max fixed-size elements,
// each described by elem. An empty list decodes to nil. The decoder sizes the
// elements by what the first one consumed and refuses a count whose remainder
// the frame cannot hold.
func List[T any](c *Codec, list *[]T, max int, elem func(*Codec, *T)) {
	n := c.count(len(*list), max)
	if c.mode != reading {
		for i := range *list {
			elem(c, &(*list)[i])
		}
		return
	}
	if n == 0 {
		return
	}
	out := make([]T, 0, min(n, listStep))
	for len(out) < n && c.err == nil {
		var zero T
		left := c.lr.N
		out = append(out, zero)
		elem(c, &out[len(out)-1])
		if size := left - c.lr.N; len(out) == 1 && int64(n-1)*size > c.lr.N {
			c.Fail(fmt.Errorf("list of %d %d-byte elements cannot fit in the frame", n, size))
		}
	}
	*list = out
}

// Digests moves a list of at most max panel digests.
func (c *Codec) Digests(v *[]cache.Digest, max int) {
	List(c, v, max, func(c *Codec, d *cache.Digest) { c.Raw(d[:]) })
}

// Blocks moves a block list through the frame's BlockCodec, straight between
// the connection and the blocks' own memory. A decoding walk fills an empty
// *v from the codec's pool and decodes into a filled one in place — a list of
// another length or a block of another edge is refused before it is stored.
func (c *Codec) Blocks(v *[]*matrix.Block) {
	if c.bc == nil {
		c.bc = &matrix.BlockCodec{}
	}
	switch {
	case c.err != nil:
	case c.mode == sizing:
		c.n += 4
		for _, b := range *v {
			c.n += int64(matrix.BlockWireSize(b.Q))
		}
	case c.mode == writing:
		c.err = c.bc.WriteBlocks(c.w, *v)
	case len(*v) > 0:
		c.err = c.bc.ReadBlocksInto(&c.lr, *v)
	default:
		*v, c.err = c.bc.ReadBlocks(&c.lr)
	}
}
