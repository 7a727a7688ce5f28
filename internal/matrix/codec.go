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
// On a little-endian host the payload *is* the block's memory, so it moves
// between Block.Data and the stream with no staging copy. Two consequences. A
// block being sent is read by the Write itself: recycle or overwrite it only
// after the send that carried it has returned. A decode that fails midway
// leaves its destination partially written: a pool-born one goes back to the
// pool, a caller-supplied one (ReadBlocksInto) is the caller's to discard.
// Big-endian hosts, and cold decodes of blocks above coldScratch, convert
// through the codec's scratch buffer.

const blockMagic = 0x424c4b31 // "BLK1"

// hostLittleEndian gates the zero-staging path; tests clear it to force the
// portable conversion loop and compare bytes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views data's memory as bytes, its wire image on a little-endian
// host. The only unsafe in the repo; the view must not outlive data.
func floatBytes(data []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
}

// BlockCodec serializes and deserializes framed blocks, optionally drawing
// decoded blocks from a BlockPool. The zero value works as a one-shot codec;
// a long-lived codec per connection with a pool reuses the blocks themselves
// (and, where it must convert, one scratch buffer), so a steady-state
// transfer loop performs no allocation at all.
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

// WritePayload writes data's little-endian image — a block's payload without
// the header — to w with a single Write. Panel digests hash blocks through it.
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

// ReadBlock deserializes one framed block from r. With a Pool set, the
// returned block is recycled rather than freshly allocated; every element is
// overwritten, so stale pool contents never leak through.
func (c *BlockCodec) ReadBlock(r io.Reader) (*Block, error) { return c.readBlock(r, nil) }

// coldScratch is the largest payload a decode makes room for on the header's
// word alone; every real block (q ≤ 362) is below it.
const coldScratch = 1 << 20

// readBlock reads one framed block into dst or, when dst is nil, into a pool
// block, which goes back on a failed read. The edge the header declares is
// refused unless plausible (and dst's) before anything is taken or stored. Up
// to coldScratch the payload lands in the block directly; above it (and on
// big-endian hosts) it is staged and converted, and a pool block is taken only
// once it is in.
func (c *BlockCodec) readBlock(r io.Reader, dst *Block) (*Block, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("matrix: read block header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != blockMagic {
		return nil, fmt.Errorf("matrix: bad block magic %#x", m)
	}
	q := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if q <= 0 || q > 1<<14 {
		return nil, fmt.Errorf("matrix: implausible block edge %d", q)
	}
	if dst != nil && (dst.Q != q || len(dst.Data) != q*q) {
		return nil, fmt.Errorf("matrix: block of edge %d on the wire, its destination has edge %d", q, dst.Q)
	}
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

// ReadBlocksInto is ReadBlocks into the blocks the caller already owns. A list
// of another length is refused before a byte of dst is stored, a block of
// another edge before that block is.
func (c *BlockCodec) ReadBlocksInto(r io.Reader, dst []*Block) error {
	n, err := readCount(r)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("matrix: %d blocks on the wire for a destination of %d", n, len(dst))
	}
	for i, b := range dst {
		if b == nil {
			return fmt.Errorf("matrix: destination block %d is nil", i)
		}
		if _, err := c.readBlock(r, b); err != nil {
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
