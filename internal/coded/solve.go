package coded

import "repro/internal/matrix"

// pivotEps rejects a pivot as numerically singular. The planner's coefficient
// matrices are tiny generalized Vandermonde systems over small integer nodes
// (group width ≤ groupWidth, nodes 1..R), so genuine pivots sit far above
// this; only a malformed system gets near it.
const pivotEps = 1e-12

// Reconstruct is the engine.ReconstructFunc the planner installs: it solves
// one parity group for its missing members. members holds the group's
// committed results by slot (nil where missing), each parity row contributes
// its coefficient vector and result blocks. All received results of one group
// share the system Σ_i coef_i·R_i = parity, element-wise over every block
// position, so one Gaussian elimination with partial pivoting — row
// operations applied to whole block lists — recovers every missing R_i at
// once. Returns ok=false while underdetermined (or on a singular system,
// which a well-formed plan never produces); inputs are never mutated.
func Reconstruct(members [][]*matrix.Block, coeffs [][]float64, parities [][]*matrix.Block) (map[int][]*matrix.Block, bool) {
	var missing []int
	for s, m := range members {
		if m == nil {
			missing = append(missing, s)
		}
	}
	if len(missing) == 0 {
		return map[int][]*matrix.Block{}, true
	}
	if len(parities) < len(missing) || len(coeffs) != len(parities) {
		return nil, false
	}

	// Move the known members to the right-hand side: rhs_j = parity_j −
	// Σ_{known i} coef_ji·member_i. Fresh clones — the parity blocks may be
	// retried with more rows later if this solve reports singular.
	n := len(parities)
	rhs := make([][]*matrix.Block, n)
	mat := make([][]float64, n)
	for j := 0; j < n; j++ {
		if len(coeffs[j]) != len(members) {
			return nil, false
		}
		rhs[j] = cloneList(parities[j])
		for s, m := range members {
			if m != nil {
				axpyList(rhs[j], -coeffs[j][s], m)
			}
		}
		mat[j] = make([]float64, len(missing))
		for u, s := range missing {
			mat[j][u] = coeffs[j][s]
		}
	}

	// Forward elimination with partial pivoting over all n rows.
	for u := range missing {
		p := u
		for r := u + 1; r < n; r++ {
			if abs(mat[r][u]) > abs(mat[p][u]) {
				p = r
			}
		}
		if abs(mat[p][u]) < pivotEps {
			return nil, false
		}
		mat[u], mat[p] = mat[p], mat[u]
		rhs[u], rhs[p] = rhs[p], rhs[u]
		for r := u + 1; r < n; r++ {
			f := mat[r][u] / mat[u][u]
			if f == 0 {
				continue
			}
			for v := u; v < len(missing); v++ {
				mat[r][v] -= f * mat[u][v]
			}
			axpyList(rhs[r], -f, rhs[u])
		}
	}

	// Back substitution; each solution reuses its rhs row's blocks.
	out := make(map[int][]*matrix.Block, len(missing))
	for u := len(missing) - 1; u >= 0; u-- {
		x := rhs[u]
		for v := u + 1; v < len(missing); v++ {
			axpyList(x, -mat[u][v], rhs[v])
		}
		scaleList(x, 1/mat[u][u])
		out[missing[u]] = x
	}
	return out, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func cloneList(blocks []*matrix.Block) []*matrix.Block {
	out := make([]*matrix.Block, len(blocks))
	for i, b := range blocks {
		out[i] = b.Clone()
	}
	return out
}

// axpyList accumulates dst += s·src blockwise (same shapes).
func axpyList(dst []*matrix.Block, s float64, src []*matrix.Block) {
	for i, b := range src {
		axpyBlock(dst[i], s, b)
	}
}

func scaleList(blocks []*matrix.Block, s float64) {
	if s == 1 {
		return
	}
	for _, b := range blocks {
		for i := range b.Data {
			b.Data[i] *= s
		}
	}
}
