package matrix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary block framing used by the TCP cluster runtime: a fixed header
// (magic, q) followed by q² little-endian float64 values. gob would work but
// costs ~3× in encode time for large numeric slices; the schedulers move many
// thousands of 51 KB blocks, so the wire format matters.

const blockMagic = 0x424c4b31 // "BLK1"

// BlockCodec serializes and deserializes framed blocks through a reusable
// scratch buffer, optionally drawing decoded blocks from a BlockPool. The
// zero value works as a one-shot codec, allocating a staging buffer the size
// of the block payload (~51 KB at q=80); a long-lived codec per connection
// reuses one buffer and, with a pool, reuses the blocks themselves, so a
// steady-state transfer loop performs no allocation at all.
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
	buf := c.scratch(8 * len(b.Data))
	for i, v := range b.Data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("matrix: write block payload: %w", err)
	}
	return nil
}

// ReadBlock deserializes one framed block from r. With a Pool set, the
// returned block is recycled rather than freshly allocated; every element is
// overwritten, so stale pool contents never leak through.
func (c *BlockCodec) ReadBlock(r io.Reader) (*Block, error) {
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
	buf, err := c.fill(r, 8*q*q)
	if err != nil {
		return nil, fmt.Errorf("matrix: read block payload: %w", err)
	}
	b := c.Pool.Get(q)
	for i := range b.Data {
		b.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return b, nil
}

// coldScratch is the largest payload a cold codec stages on the header's word
// alone; every real block (q ≤ 362) is below it.
const coldScratch = 1 << 20

// fill reads an n-byte block payload into the scratch buffer. The block edge
// came off the wire, so a buffer that must first grow past coldScratch grows
// with the bytes that actually arrive, and the block itself is allocated only
// once its payload is in: a hostile 8-byte header costs what it ships.
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

// ReadBlocks deserializes a block list written by WriteBlocks.
func (c *BlockCodec) ReadBlocks(r io.Reader) ([]*Block, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("matrix: read block count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(cnt[:]))
	if n > maxBlockList {
		return nil, fmt.Errorf("matrix: implausible block count %d", n)
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

// BlockWireSize returns the framed size in bytes of a q×q block, used by the
// cluster runtime to budget link-rate emulation.
func BlockWireSize(q int) int { return 8 + 8*q*q }

// maxBlockList caps how many blocks one message may carry; the largest real
// payload is a full installment or chunk of a huge instance, far below this.
const maxBlockList = 1 << 22
