package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBlockZeroed(t *testing.T) {
	b := NewBlock(7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if b.At(i, j) != 0 {
				t.Fatalf("fresh block not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestBlockSetAt(t *testing.T) {
	b := NewBlock(4)
	b.Set(2, 3, 1.5)
	b.Set(0, 0, -2)
	if got := b.At(2, 3); got != 1.5 {
		t.Errorf("At(2,3) = %v, want 1.5", got)
	}
	if got := b.At(0, 0); got != -2 {
		t.Errorf("At(0,0) = %v, want -2", got)
	}
	if got := b.At(3, 2); got != 0 {
		t.Errorf("At(3,2) = %v, want 0", got)
	}
}

func TestBlockClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBlock(5)
	b.FillRandom(rng)
	c := b.Clone()
	if !b.Equal(c, 0) {
		t.Fatal("clone differs from original")
	}
	c.Set(0, 0, 99)
	if b.At(0, 0) == 99 {
		t.Fatal("clone aliases original storage")
	}
}

func TestBlockZero(t *testing.T) {
	b := NewBlock(3)
	b.Set(1, 1, 4)
	b.Zero()
	if !b.Equal(NewBlock(3), 0) {
		t.Fatal("Zero did not clear block")
	}
}

func TestBlockEqualTolerance(t *testing.T) {
	a, b := NewBlock(2), NewBlock(2)
	b.Set(1, 0, 1e-9)
	if !a.Equal(b, 1e-8) {
		t.Error("blocks within tolerance reported unequal")
	}
	if a.Equal(b, 1e-10) {
		t.Error("blocks outside tolerance reported equal")
	}
	if a.Equal(NewBlock(3), 1) {
		t.Error("blocks of different edge reported equal")
	}
	if a.Equal(nil, 1) {
		t.Error("nil block reported equal")
	}
}

func TestMulAddMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range []int{1, 2, 3, 8, 17, 32} {
		a, b := NewBlock(q), NewBlock(q)
		a.FillRandom(rng)
		b.FillRandom(rng)
		c1, c2 := NewBlock(q), NewBlock(q)
		c1.FillRandom(rng)
		copy(c2.Data, c1.Data)
		MulAdd(c1, a, b)
		MulAddRef(c2, a, b)
		if d := c1.MaxAbsDiff(c2); d > 1e-12*float64(q) {
			t.Errorf("q=%d: MulAdd deviates from naive oracle by %g", q, d)
		}
	}
}

func TestMulAddIdentity(t *testing.T) {
	q := 9
	rng := rand.New(rand.NewSource(3))
	id := NewBlock(q)
	for i := 0; i < q; i++ {
		id.Set(i, i, 1)
	}
	b := NewBlock(q)
	b.FillRandom(rng)
	c := NewBlock(q)
	MulAdd(c, id, b) // c = I·b = b
	if !c.Equal(b, 1e-14) {
		t.Fatal("I·B != B")
	}
}

func TestMulAddAccumulates(t *testing.T) {
	q := 6
	rng := rand.New(rand.NewSource(4))
	a, b := NewBlock(q), NewBlock(q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c := NewBlock(q)
	MulAdd(c, a, b)
	once := c.Clone()
	MulAdd(c, a, b) // c = 2·a·b
	for i := range c.Data {
		if math.Abs(c.Data[i]-2*once.Data[i]) > 1e-12 {
			t.Fatalf("second MulAdd did not accumulate at flat index %d", i)
		}
	}
}

func TestMulAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MulAdd(NewBlock(2), NewBlock(3), NewBlock(2))
}

// Property: (A+A')·B = A·B + A'·B accumulated into the same C (bilinearity).
func TestMulAddLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := 1 + r.Intn(12)
		a1, a2, b := NewBlock(q), NewBlock(q), NewBlock(q)
		a1.FillRandom(r)
		a2.FillRandom(r)
		b.FillRandom(r)
		sum := NewBlock(q)
		for i := range sum.Data {
			sum.Data[i] = a1.Data[i] + a2.Data[i]
		}
		c1 := NewBlock(q)
		MulAdd(c1, sum, b)
		c2 := NewBlock(q)
		MulAdd(c2, a1, b)
		MulAdd(c2, a2, b)
		return c1.Equal(c2, 1e-10)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestComparatorsSeeNaN: a NaN is never a silent match — the bitwise-C
// suites compare with MaxAbsDiff == 0 and Equal(…, 0), and a result poisoned
// with NaN must fail them — while identical bit patterns still agree.
func TestComparatorsSeeNaN(t *testing.T) {
	a, b := NewBlock(2), NewBlock(2)
	a.Data[1], b.Data[1] = math.Inf(1), math.Inf(1)
	a.Data[2], b.Data[2] = math.NaN(), math.NaN()
	if d := a.MaxAbsDiff(b); d != 0 || !a.Equal(b, 0) {
		t.Errorf("identical bit patterns differ: MaxAbsDiff %g, Equal %v", d, a.Equal(b, 0))
	}
	b.Data[3] = math.NaN()
	if d := a.MaxAbsDiff(b); !math.IsInf(d, 1) || a.Equal(b, 1e9) || b.Equal(a, 1e9) {
		t.Errorf("NaN against 0: MaxAbsDiff %g, Equal %v", d, a.Equal(b, 1e9))
	}
	m, n := NewBlockMatrix(1, 2, 2), NewBlockMatrix(1, 2, 2)
	m.Block(0, 1).Data[0] = math.NaN()
	n.Block(0, 0).Data[0] = 0.5
	if d := m.MaxAbsDiff(n); !math.IsInf(d, 1) || m.Equal(n, 1) {
		t.Errorf("matrix with a NaN block: MaxAbsDiff %g, Equal %v", d, m.Equal(n, 1))
	}
}
