// Package matrix implements the blocked dense-matrix substrate used by the
// matrix-product schedulers: square q×q blocks (the atomic unit the paper
// manipulates, chosen to harness Level-3 BLAS routines), block matrices
// partitioned into stripes of such blocks, and the multiply-add kernel
// C ← C + A·B that stands in for dgemm.
//
// The block-update kernels MulAdd and MulSub delegate to internal/kernel,
// which selects the fastest implementation for the host CPU at startup
// (register-blocked pure Go everywhere, AVX2 assembly on capable amd64) while
// guaranteeing bitwise-identical results across implementations. Real
// execution paths (internal/engine, internal/net) therefore perform
// genuine floating-point work with the same q³ operation count per block
// update that the paper's model charges as one w_i time unit.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kernel"
)

// DefaultQ is the default block edge. The paper uses q = 80 or 100 "on most
// platforms"; 80 keeps a block (80×80 float64 = 51.2 KB) comfortably inside
// L2 caches.
const DefaultQ = 80

// Block is a dense square q×q tile stored row-major. Block is the atomic
// element exchanged between master and workers: the platform model charges
// c_i time units to move one block and w_i to apply one block update.
type Block struct {
	Q    int
	Data []float64 // len Q*Q, row-major
}

// NewBlock returns a zeroed q×q block.
func NewBlock(q int) *Block {
	return &Block{Q: q, Data: make([]float64, q*q)}
}

// At returns element (i, j).
func (b *Block) At(i, j int) float64 { return b.Data[i*b.Q+j] }

// Set assigns element (i, j).
func (b *Block) Set(i, j int, v float64) { b.Data[i*b.Q+j] = v }

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := NewBlock(b.Q)
	copy(nb.Data, b.Data)
	return nb
}

// Zero clears the block in place.
func (b *Block) Zero() {
	clear(b.Data)
}

// FillRandom fills the block with uniform values in [-1, 1) from rng.
func (b *Block) FillRandom(rng *rand.Rand) {
	for i := range b.Data {
		b.Data[i] = 2*rng.Float64() - 1
	}
}

// Equal reports whether two blocks agree elementwise within tol; a NaN agrees
// only with its own bit pattern.
func (b *Block) Equal(o *Block, tol float64) bool {
	if o == nil || b.Q != o.Q {
		return false
	}
	// Re-slicing od to len(x) eliminates the second bounds check so the loop
	// vectorizes down to compare-and-branch per lane pair.
	x := b.Data
	od := o.Data[:len(x)]
	for i := range x {
		if d := x[i] - od[i]; d > tol || d < -tol || d != d && !sameBits(x[i], od[i]) {
			return false
		}
	}
	return true
}

// sameBits reports bit-for-bit equality, the one sense in which two NaNs (or
// two infinities, whose difference is NaN) agree.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// MaxAbsDiff returns the largest absolute elementwise difference between two
// blocks. A NaN facing anything but its own bit pattern is an infinite
// difference — never a silent zero — so "MaxAbsDiff == 0" means bitwise
// agreement even for a result that is all NaN. It panics if shapes differ.
func (b *Block) MaxAbsDiff(o *Block) float64 {
	if b.Q != o.Q {
		panic(fmt.Sprintf("matrix: MaxAbsDiff shape mismatch %d vs %d", b.Q, o.Q))
	}
	// Compare-and-assign instead of math.Max: Max is a call with ±0/NaN
	// semantics this reduction does not need, and Abs is an intrinsic.
	x := b.Data
	od := o.Data[:len(x)]
	m := 0.0
	for i := range x {
		if d := math.Abs(x[i] - od[i]); d > m {
			m = d
		} else if d != d && !sameBits(x[i], od[i]) {
			return math.Inf(1)
		}
	}
	return m
}

// MulAdd performs the block update c ← c + a·b. This is the q³ kernel the
// model charges as one block update (w_i time units on worker i).
//
// The work is delegated to the kernel implementation internal/kernel selected
// for the host CPU at startup (overridable with MATMUL_KERNEL). All kernels
// apply the identical per-element operation sequence — contributions in
// ascending k, one unfused multiply then one add — so the result is bitwise
// independent of which kernel, and therefore which worker machine, applied
// the update.
func MulAdd(c, a, b *Block) {
	if c.Q != a.Q || c.Q != b.Q {
		panic(fmt.Sprintf("matrix: MulAdd shape mismatch c=%d a=%d b=%d", c.Q, a.Q, b.Q))
	}
	kernel.MulAdd(c.Data, a.Data, b.Data, c.Q)
}

// MulSub performs the block update c ← c − a·b, the trailing-update kernel of
// blocked LU factorization. Same kernel dispatch as MulAdd. (An earlier
// version open-coded a rolled ikj loop that skipped k when a[i,k] == 0; on
// the dense random blocks of the engine's steady state the branch is never
// taken and only costs, so the kernels drop it.)
func MulSub(c, a, b *Block) {
	if c.Q != a.Q || c.Q != b.Q {
		panic(fmt.Sprintf("matrix: MulSub shape mismatch c=%d a=%d b=%d", c.Q, a.Q, b.Q))
	}
	kernel.MulSub(c.Data, a.Data, b.Data, c.Q)
}

// MulAddRef is a deliberately naive ijk triple loop used as an independent
// oracle for MulAdd in tests.
func MulAddRef(c, a, b *Block) {
	q := c.Q
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			s := c.Data[i*q+j]
			for k := 0; k < q; k++ {
				s += a.Data[i*q+k] * b.Data[k*q+j]
			}
			c.Data[i*q+j] = s
		}
	}
}

// ErrShape reports incompatible matrix shapes.
var ErrShape = errors.New("matrix: incompatible shapes")
