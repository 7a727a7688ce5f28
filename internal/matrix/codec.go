package matrix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Binary block framing used by the TCP cluster runtime: a fixed header
// (magic, q) followed by q² little-endian float64 values. gob would work but
// costs ~3× in encode time for large numeric slices; the schedulers move many
// thousands of 51 KB blocks, so the wire format matters.
//
// On a little-endian host the wire payload *is* the block's memory, so a
// block moves between Block.Data and the stream with no staging copy: the
// writer hands the stream a byte view of Data, the reader fills Data straight
// from the stream. Two consequences for callers. A block being sent is read
// by the Write itself, so it may be recycled or overwritten only after the
// send that carried it has returned (with a buffered writer: after the
// Flush). A decode that fails midway leaves its destination partially
// written: a pool-born one goes back to the pool, a caller-supplied one
// (ReadBlocksInto) is the caller's to discard. Big-endian hosts, and cold
// decodes of blocks above coldScratch, convert through the scratch buffer.

const blockMagic = 0x424c4b31 // "BLK1"

// hostLittleEndian gates the zero-staging path; the tests clear it to force
// the portable conversion loop and compare bytes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views data's memory as bytes — its wire image on a little-endian
// host. The only unsafe in the repo: the view aliases data and must not
// outlive it.
func floatBytes(data []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
}

// BlockCodec serializes and deserializes framed blocks, optionally drawing
// decoded blocks from a BlockPool. The zero value works as a one-shot codec.
// Its scratch buffer is touched only where the payload cannot move in place
// (see above); a long-lived codec per connection with a pool reuses the
// blocks themselves, so a steady-state transfer loop performs no allocation
// at all.
//
// A BlockCodec is not safe for concurrent use; give each goroutine (or each
// connection direction) its own.
type BlockCodec struct {
	// Pool, when non-nil, supplies the blocks ReadBlock decodes into. The
	// consumer of those blocks decides when (whether) to Put them back.
	Pool *BlockPool
	buf  []byte
}

func (c *BlockCodec) scratch(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// WriteBlock serializes b to w in the framed binary format.
func (c *BlockCodec) WriteBlock(w io.Writer, b *Block) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], blockMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(b.Q))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("matrix: write block header: %w", err)
	}
	if err := c.WritePayload(w, b.Data); err != nil {
		return fmt.Errorf("matrix: write block payload: %w", err)
	}
	return nil
}

// WritePayload writes data's little-endian image — a block's wire payload,
// without the header — to w with a single Write. Panel digests hash blocks
// through it, so what is hashed is what is shipped.
func (c *BlockCodec) WritePayload(w io.Writer, data []float64) error {
	buf := floatBytes(data)
	if !hostLittleEndian {
		buf = c.scratch(8 * len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
	}
	_, err := w.Write(buf)
	return err
}

// readHeader reads one block header and returns the edge it declares, refused
// unless plausible — before anything is allocated or taken from a pool.
func readHeader(r io.Reader) (int, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("matrix: read block header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != blockMagic {
		return 0, fmt.Errorf("matrix: bad block magic %#x", m)
	}
	q := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if q <= 0 || q > 1<<14 {
		return 0, fmt.Errorf("matrix: implausible block edge %d", q)
	}
	return q, nil
}

// ReadBlock deserializes one framed block from r. With a Pool set, the
// returned block is recycled rather than freshly allocated; every element is
// overwritten, so stale pool contents never leak through.
func (c *BlockCodec) ReadBlock(r io.Reader) (*Block, error) {
	q, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	return c.readPayload(r, q, nil)
}

// coldScratch is the largest payload a decode makes room for on the header's
// word alone; every real block (q ≤ 362) is below it.
const coldScratch = 1 << 20

// readPayload reads a q×q payload into dst, or into a block from the pool
// when dst is nil, which goes back on a failed read. Up to coldScratch the
// bytes land in the block directly; above it (and on big-endian hosts) they
// are staged and converted, and a pool block is taken only once they are in.
func (c *BlockCodec) readPayload(r io.Reader, q int, dst *Block) (*Block, error) {
	n := 8 * q * q
	if hostLittleEndian && n <= coldScratch {
		b := dst
		if b == nil {
			b = c.Pool.Get(q)
		}
		if _, err := io.ReadFull(r, floatBytes(b.Data)); err != nil {
			if dst == nil {
				c.Pool.Put(b)
			}
			return nil, fmt.Errorf("matrix: read block payload: %w", err)
		}
		return b, nil
	}
	buf, err := c.fill(r, n)
	if err != nil {
		return nil, fmt.Errorf("matrix: read block payload: %w", err)
	}
	if dst == nil {
		dst = c.Pool.Get(q)
	}
	for i := range dst.Data {
		dst.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return dst, nil
}

// fill reads an n-byte block payload into the scratch buffer. The block edge
// came off the wire, so a buffer that must first grow past coldScratch grows
// with the bytes that actually arrive: a hostile 8-byte header costs what it
// ships.
func (c *BlockCodec) fill(r io.Reader, n int) ([]byte, error) {
	if cap(c.buf) < n && n > coldScratch {
		var b bytes.Buffer
		if _, err := io.CopyN(&b, r, int64(n)); err != nil {
			return nil, err
		}
		c.buf = b.Bytes()
		return c.buf, nil
	}
	buf := c.scratch(n)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// WriteBlocks serializes a block list as a count followed by each block.
func (c *BlockCodec) WriteBlocks(w io.Writer, blocks []*Block) error {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(blocks)))
	if _, err := w.Write(cnt[:]); err != nil {
		return fmt.Errorf("matrix: write block count: %w", err)
	}
	for _, b := range blocks {
		if err := c.WriteBlock(w, b); err != nil {
			return err
		}
	}
	return nil
}

func readCount(r io.Reader) (int, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return 0, fmt.Errorf("matrix: read block count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(cnt[:]))
	if n > maxBlockList {
		return 0, fmt.Errorf("matrix: implausible block count %d", n)
	}
	return n, nil
}

// ReadBlocks deserializes a block list written by WriteBlocks.
func (c *BlockCodec) ReadBlocks(r io.Reader) ([]*Block, error) {
	n, err := readCount(r)
	if err != nil {
		return nil, err
	}
	// Grow the list as blocks actually arrive rather than trusting the
	// count prefix with an up-front allocation: a hostile header then costs
	// only what it ships.
	var blocks []*Block
	for i := 0; i < n; i++ {
		b, err := c.ReadBlock(r)
		if err != nil {
			c.Pool.PutAll(blocks)
			return nil, err
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// ReadBlocksInto deserializes a block list written by WriteBlocks into the
// blocks the caller already owns, in order. A list of another length is
// refused before a byte of dst is stored, a block of another edge before that
// block is; an error past that point leaves dst partially overwritten.
func (c *BlockCodec) ReadBlocksInto(r io.Reader, dst []*Block) error {
	n, err := readCount(r)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("matrix: %d blocks on the wire for a destination of %d", n, len(dst))
	}
	for i, b := range dst {
		q, err := readHeader(r)
		if err != nil {
			return err
		}
		if b == nil || q != b.Q || len(b.Data) != q*q {
			return fmt.Errorf("matrix: block %d has edge %d on the wire, its destination does not", i, q)
		}
		if _, err := c.readPayload(r, q, b); err != nil {
			return err
		}
	}
	return nil
}

// BlockWireSize returns the framed size in bytes of a q×q block, used by the
// cluster runtime to budget link-rate emulation.
func BlockWireSize(q int) int { return 8 + 8*q*q }

// maxBlockList caps how many blocks one message may carry; the largest real
// payload is a full installment or chunk of a huge instance, far below this.
const maxBlockList = 1 << 22
