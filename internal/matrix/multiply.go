package matrix

import "fmt"

// Cache-blocking tiles for mulDD: the inner loops sweep a mulKTile x
// mulJTile panel of b (256 KB) so it stays L2-resident while it is reused
// across every row of a, instead of streaming all of b once per output
// row. Per-cell accumulation order stays ascending-p, so tiling is
// byte-identical to the untiled ikj loop.
const (
	mulKTile = 64  // inner-dimension rows of b per tile
	mulJTile = 512 // output columns per tile
)

// Mul computes the matrix product a %*% b. It dispatches on the operand
// representations: dense-dense uses a cache-blocked ikj loop, sparse-dense
// iterates stored non-zeros, and sparse-sparse accumulates per output row.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: mul dimension mismatch %dx%d %%*%% %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	switch {
	case a.sp == nil && b.sp == nil:
		return mulDD(a, b)
	case a.sp != nil && b.sp == nil:
		return mulSD(a, b)
	case a.sp == nil && b.sp != nil:
		// Densify the right side row-wise on the fly: b is sparse, compute
		// c = a * b via the transpose trick on b's stored entries.
		return mulDS(a, b)
	default:
		return mulSS(a, b)
	}
}

func mulDD(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	n, k, m := a.rows, a.cols, b.cols
	// Tiled ikj: for every output cell c[i][j] the contributions still
	// arrive in ascending-p order (tiles are visited in order, p ascends
	// within a tile, and exactly one j-tile contains j), so the result is
	// bit-for-bit the untiled loop's.
	for j0 := 0; j0 < m; j0 += mulJTile {
		j1 := min(j0+mulJTile, m)
		for p0 := 0; p0 < k; p0 += mulKTile {
			p1 := min(p0+mulKTile, k)
			for i := 0; i < n; i++ {
				ci := c.dense[i*m+j0 : i*m+j1]
				ai := a.dense[i*k : (i+1)*k]
				for p := p0; p < p1; p++ {
					av := ai[p]
					if av == 0 {
						continue
					}
					bp := b.dense[p*m+j0 : p*m+j1]
					for j, bv := range bp {
						ci[j] += av * bv
					}
				}
			}
		}
	}
	return c
}

func mulSD(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	m := b.cols
	for i := 0; i < a.rows; i++ {
		ci := c.dense[i*m : (i+1)*m]
		a.sp.eachRow(i, func(p int, av float64) {
			bp := b.dense[p*m : (p+1)*m]
			for j := 0; j < m; j++ {
				ci[j] += av * bp[j]
			}
		})
	}
	return c
}

func mulDS(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	m := b.cols
	// For each stored b[p][j], add a[:,p]*v into c[:,j].
	b.sp.each(func(p, j int, v float64) {
		for i := 0; i < a.rows; i++ {
			c.dense[i*m+j] += a.dense[i*a.cols+p] * v
		}
	})
	return c
}

func mulSS(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	m := b.cols
	for i := 0; i < a.rows; i++ {
		ci := c.dense[i*m : (i+1)*m]
		a.sp.eachRow(i, func(p int, av float64) {
			b.sp.eachRow(p, func(j int, bv float64) {
				ci[j] += av * bv
			})
		})
	}
	return c.Compact()
}

// TSMM computes the transpose-self matrix multiply t(x) %*% x, a dedicated
// kernel exploited by the compiler for pattern t(X)%*%X (only the upper
// triangle is computed and mirrored).
func TSMM(x *Matrix) *Matrix {
	k := x.cols
	c := NewDense(k, k)
	if x.sp != nil {
		for i := 0; i < x.rows; i++ {
			x.sp.eachRow(i, func(j1 int, v1 float64) {
				x.sp.eachRow(i, func(j2 int, v2 float64) {
					if j2 >= j1 {
						c.dense[j1*k+j2] += v1 * v2
					}
				})
			})
		}
	} else {
		for i := 0; i < x.rows; i++ {
			xi := x.dense[i*k : (i+1)*k]
			for j1, v1 := range xi {
				if v1 == 0 {
					continue
				}
				cj := c.dense[j1*k : (j1+1)*k]
				for j2 := j1; j2 < k; j2++ {
					cj[j2] += v1 * xi[j2]
				}
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			c.dense[j*k+i] = c.dense[i*k+j]
		}
	}
	return c
}
