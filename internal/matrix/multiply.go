package matrix

import "fmt"

// Partition grains for the multiply kernels. Grains depend only on the
// problem shape (never on the worker count) so partition boundaries — and
// with them the floating-point accumulation order — are fixed.
const (
	mulRowGrain = 8  // output rows per chunk for row-partitioned multiplies
	dsRowGrain  = 32 // rows per chunk for mulDS (each chunk rescans b's nnz)

	// Cache-blocking tiles for mulDD: the inner loops sweep a mulKTile x
	// mulJTile panel of b (256 KB) so it stays L2-resident while being
	// reused across a whole row chunk, instead of streaming all of b once
	// per output row. Tile sizes depend only on constants, and per-cell
	// accumulation order stays ascending-p, so tiling is byte-identical to
	// the untiled ikj loop at any parallelism.
	mulKTile = 64  // inner-dimension rows of b per tile
	mulJTile = 512 // output columns per tile
)

// Mul computes the matrix product a %*% b. It dispatches on the operand
// representations: dense-dense uses a cache-friendly ikj loop, sparse-dense
// iterates stored non-zeros, and sparse-sparse accumulates per output row.
// All four dispatches are row-partitioned across the shared worker pool;
// every output row is produced by exactly one worker in the sequential
// accumulation order, so results are byte-identical for any parallelism.
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
	parRange(n, mulRowGrain, func(lo, hi int) {
		// Tiled ikj: for every output cell c[i][j] the contributions still
		// arrive in ascending-p order (tiles are visited in order, p ascends
		// within a tile, and exactly one j-tile contains j), so the result
		// is bit-for-bit the untiled loop's.
		for j0 := 0; j0 < m; j0 += mulJTile {
			j1 := j0 + mulJTile
			if j1 > m {
				j1 = m
			}
			for p0 := 0; p0 < k; p0 += mulKTile {
				p1 := p0 + mulKTile
				if p1 > k {
					p1 = k
				}
				for i := lo; i < hi; i++ {
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
	})
	return c
}

func mulSD(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	m := b.cols
	parRange(a.rows, mulRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.dense[i*m : (i+1)*m]
			a.sp.eachRow(i, func(p int, av float64) {
				bp := b.dense[p*m : (p+1)*m]
				for j := 0; j < m; j++ {
					ci[j] += av * bp[j]
				}
			})
		}
	})
	return c
}

func mulDS(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	m := b.cols
	// For each stored b[p][j], add a[:,p]*v into c[:,j]. Partitioned over
	// a's rows: every chunk rescans b's non-zeros but updates only its own
	// row range, preserving the per-cell accumulation order.
	parRange(a.rows, dsRowGrain, func(lo, hi int) {
		b.sp.each(func(p, j int, v float64) {
			for i := lo; i < hi; i++ {
				c.dense[i*m+j] += a.dense[i*a.cols+p] * v
			}
		})
	})
	return c
}

func mulSS(a, b *Matrix) *Matrix {
	c := NewDense(a.rows, b.cols)
	m := b.cols
	parRange(a.rows, mulRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.dense[i*m : (i+1)*m]
			a.sp.eachRow(i, func(p int, av float64) {
				b.sp.eachRow(p, func(j int, bv float64) {
					ci[j] += av * bv
				})
			})
		}
	})
	return c.Compact()
}

// TSMM computes the transpose-self matrix multiply t(x) %*% x, a dedicated
// kernel exploited by the compiler for pattern t(X)%*%X (only the upper
// triangle is computed and mirrored). The upper triangle is partitioned by
// output row j1; each worker scans x's rows in ascending order so every
// cell accumulates in the sequential order.
func TSMM(x *Matrix) *Matrix {
	k := x.cols
	c := NewDense(k, k)
	if x.sp != nil {
		// Sparse rows are rescanned per chunk; cap the chunk count so the
		// rescan overhead stays bounded.
		parRange(k, chunkGrain(k, 16), func(lo, hi int) {
			for i := 0; i < x.rows; i++ {
				x.sp.eachRow(i, func(j1 int, v1 float64) {
					if j1 < lo || j1 >= hi {
						return
					}
					x.sp.eachRow(i, func(j2 int, v2 float64) {
						if j2 >= j1 {
							c.dense[j1*k+j2] += v1 * v2
						}
					})
				})
			}
		})
	} else {
		parRange(k, mulRowGrain, func(lo, hi int) {
			for i := 0; i < x.rows; i++ {
				xi := x.dense[i*k : (i+1)*k]
				for j1 := lo; j1 < hi; j1++ {
					v1 := xi[j1]
					if v1 == 0 {
						continue
					}
					cj := c.dense[j1*k : (j1+1)*k]
					for j2 := j1; j2 < k; j2++ {
						cj[j2] += v1 * xi[j2]
					}
				}
			}
		})
	}
	// Mirror the upper triangle.
	parRange(k, chunkGrain(k, 16), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < k; j++ {
				c.dense[j*k+i] = c.dense[i*k+j]
			}
		}
	})
	return c
}
