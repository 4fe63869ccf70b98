// Package blas provides the dense floating-point kernels FlashR delegates
// floating-point matrix multiplication to (Table 2 of the paper routes f64
// `%*%` to BLAS and integer `%*%` to the generalized inner-product GenOp).
// The paper links ATLAS; under the stdlib-only constraint this package
// implements the needed subset from scratch in pure Go: GEMM, GEMM with a
// transposed left operand, SYRK, and the level-1 routines used around them.
// SqDist, the squared Euclidean distance of each row of A to each column of
// B, is not BLAS; it is here because k-means' inner.prod(X, t(C),
// "euclidean", "+") has GEMM's shape and takes its register tile.
//
// All matrices are row-major. The level-3 kernels and SqDist share one
// register-tiled loop shape: it holds a 2×4 block of C in locals, runs the
// whole reduction with no data-dependent branch in it, and stores the block
// once. 2×4 keeps the 8 accumulators, 2 A values and the B operands
// inside amd64's 16 X registers; a 4×4 tile needs 16 accumulators alone and
// spills. The engine's Pcache chunks already keep the operands in L1/L2, so
// there is no outer cache blocking.
//
// Order guarantee: each element of C starts from its value on entry (0 for
// SqDist, which overwrites C) and adds its terms in reduction order (k
// ascending for Gemm and SqDist, rows of A ascending for GemmTA and Syrk),
// exactly as the plain triple loop does. Results are therefore independent
// of the tiling and of which fringe path an element falls in. GemmTA's
// matrix-vector path keeps that row order too: it adds four rows per sweep,
// left to right, as four Axpy calls would. Gemm's matrix-vector path (n = 1
// with a contiguous B) sums each row as Dot does instead: from 0, adding
// x[q]*y[q] + … + x[q+3]*y[q+3] per group of four, left to right, then
// the tail one term at a time, and then adds that sum to C's element. It
// runs four rows at once as four independent sums, and the rows left over
// call Dot, so every row has Dot's bits. ParallelGemm runs Gemm on each row
// range, so it gives Gemm's bits on both paths whatever the split. No term
// is skipped for a zero operand where that could change a bit, so 0 × ±Inf
// gives NaN, as in R.
//
// Zero tails: GemmTail overwrites C with A*B and, for each 4-column tile of
// B (and each fringe pair or column), stops the reduction after the last row of B
// that holds a nonzero there (ZeroTails finds those rows once per B). An
// upper-triangular B thus costs about half the dense product. The skipped
// terms are a·(±0). C starts at +0, and a sum that starts at +0 is never −0
// under round-to-nearest, so adding ±0 to it never changes a bit — unless
// a is ±Inf or NaN, where a·0 is NaN. A row pair of A takes the cut
// reduction only when its skipped columns are all finite, and the full one
// otherwise, so GemmTail has the dense path's bits for every input.
package blas

import (
	"runtime"
	"slices"
	"sync"
)

// parallelMinRows is the row count below which ParallelGemm runs serially:
// smaller products finish before the goroutines would pay for themselves.
const parallelMinRows = 128

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s float64
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x, y := x[i:i+4:i+4], y[i:i+4:i+4]
		s += x[0]*y[0] + x[1]*y[1] + x[2]*y[2] + x[3]*y[3]
	}
	x, y = x[i:], y[i:]
	for j, v := range x {
		s += v * y[j]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Gemm computes C += A * B where A is m×k, B is k×n, C is m×n, all
// row-major. It runs serially; use ParallelGemm to split across workers.
func Gemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if n == 1 && ldb == 1 {
		// Matrix-vector: B is a contiguous column vector. Four rows at a
		// time run as four independent chains sharing each load of the
		// vector; a tail of fewer rows uses Dot.
		x := b[:k:k]
		i := 0
		for ; i+4 <= m; i += 4 {
			s0, s1, s2, s3 := dot4(a[i*lda:], a[(i+1)*lda:], a[(i+2)*lda:], a[(i+3)*lda:], x)
			c[i*ldc] += s0
			c[(i+1)*ldc] += s1
			c[(i+2)*ldc] += s2
			c[(i+3)*ldc] += s3
		}
		for ; i < m; i++ {
			c[i*ldc] += Dot(a[i*lda:i*lda+k], x)
		}
		return
	}
	block(m, n, k, a, 1, lda, b, ldb, c, ldc)
}

// ZeroTails returns, for the k×n right operand B of Gemm, the reduction
// length each column of B needs: one past the last row of B holding a
// nonzero in the column's group (±0 both count as zero), where the groups
// are Gemm's full 4-column tiles, then a fringe pair and a last fringe
// column (groupWidth). It returns
// nil when every group needs all k rows, and for n = 1, whose matrix-vector
// path sums in Dot's groups of four, which a cut would regroup. GemmTail
// takes the result.
func ZeroTails(n, k int, b []float64, ldb int) []int {
	if n < 2 || k < 1 {
		return nil
	}
	tails := make([]int, n)
	cut := false
	for j0, w := 0, 4; j0 < n; j0 += w {
		w = groupWidth(j0, n)
		q := k
		for q > 0 && allZero(b[(q-1)*ldb+j0:][:w]) {
			q--
		}
		for j := j0; j < j0+w; j++ {
			tails[j] = q
		}
		cut = cut || q < k
	}
	if !cut {
		return nil
	}
	return tails
}

// groupWidth is the width of block's column group starting at column j0
// of n: a 2×4 tile, then a fringe pair, then a last fringe column.
func groupWidth(j0, n int) int {
	switch {
	case j0+4 <= n:
		return 4
	case j0+2 <= n:
		return 2
	}
	return 1
}

func allZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// GemmTail sets C = A*B, where A is m×k, B is k×n and C is m×n, row-major,
// and tails is ZeroTails(n, k, b, ldb). Its bits are those of zeroing C and
// calling Gemm, which is what it does when tails is nil; otherwise each
// column j of C adds only its first tails[j] terms wherever the A row pair
// (or the last odd row) is finite in the columns some group skips.
func GemmTail(m, n, k int, a []float64, lda int, b []float64, ldb int, tails []int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		clear(c[i*ldc : i*ldc+n])
	}
	if tails == nil {
		Gemm(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	from := slices.Min(tails) // columns of A at and past it meet a skipped zero
	r := 0
	for ; r+2 <= m; r += 2 {
		ar, cr := a[r*lda:], c[r*ldc:]
		cut := finite(ar[from:k]) && finite(ar[lda+from:lda+k])
		j := 0
		for ; j+4 <= n; j += 4 {
			tile2x4(kLen(cut, tails[j], k), ar, 1, lda, b[j:], ldb, cr[j:], ldc)
		}
		if j+2 <= n {
			tile2x2(kLen(cut, tails[j], k), ar, 1, lda, b[j:], ldb, cr[j:], ldc)
			j += 2
		}
		if j < n {
			tile2x1(kLen(cut, tails[j], k), ar, 1, lda, b[j:], ldb, cr[j:], ldc)
		}
	}
	if r < m {
		ar, cr := a[r*lda:], c[r*ldc:]
		cut := finite(ar[from:k])
		for j := 0; j < n; j++ {
			cr[j] = dot(0, kLen(cut, tails[j], k), ar, 1, b[j:], ldb)
		}
	}
}

// kLen is a column group's reduction length: its tail when cut, else k.
func kLen(cut bool, tail, k int) int {
	if cut {
		return tail
	}
	return k
}

// finite reports whether every element of x is finite. It sums x in four
// chains: an Inf or a NaN leaves its chain non-finite for good, so a finite
// total means finite elements. It may report false for finite elements
// whose sum overflows; the caller then just takes the full reduction.
func finite(x []float64) bool {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		q := x[i : i+4 : i+4]
		s0 += q[0]
		s1 += q[1]
		s2 += q[2]
		s3 += q[3]
	}
	for _, v := range x[i:] {
		s0 += v
	}
	s := s0 + s1 + s2 + s3
	return s-s == 0
}

// dot4 returns Dot(a0, x), Dot(a1, x), Dot(a2, x) and Dot(a3, x), each
// summed in Dot's order, so each result has Dot's bits. The rows need only
// be as long as x.
func dot4(a0, a1, a2, a3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x := x[i : i+4 : i+4]
		r0, r1, r2, r3 := a0[i:i+4:i+4], a1[i:i+4:i+4], a2[i:i+4:i+4], a3[i:i+4:i+4]
		s0 += r0[0]*x[0] + r0[1]*x[1] + r0[2]*x[2] + r0[3]*x[3]
		s1 += r1[0]*x[0] + r1[1]*x[1] + r1[2]*x[2] + r1[3]*x[3]
		s2 += r2[0]*x[0] + r2[1]*x[1] + r2[2]*x[2] + r2[3]*x[3]
		s3 += r3[0]*x[0] + r3[1]*x[1] + r3[2]*x[2] + r3[3]*x[3]
	}
	for ; i < n; i++ {
		s0 += a0[i] * x[i]
		s1 += a1[i] * x[i]
		s2 += a2[i] * x[i]
		s3 += a3[i] * x[i]
	}
	return s0, s1, s2, s3
}

// ParallelGemm computes C += A*B splitting rows of A/C across workers
// goroutines (workers<=0 selects GOMAXPROCS).
func ParallelGemm(workers, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	if workers <= 1 || m < parallelMinRows {
		Gemm(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	step := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * step
		r1 := min(r0+step, m)
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			Gemm(r1-r0, n, k, a[r0*lda:], lda, b, ldb, c[r0*ldc:], ldc)
		}(r0, r1)
	}
	wg.Wait()
}

// GemmTA computes C += Aᵀ * B where A is m×k, B is m×n and C is k×n; this is
// the crossprod kernel (t(X) %*% Y) the engine accumulates per partition.
func GemmTA(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if n == 1 && ldc == 1 {
		// Gradient-shaped crossprod t(X) %*% r: four rows per sweep of the
		// accumulator, added left to right in row order, exactly as four
		// successive Axpy calls add them; a tail of fewer rows uses Axpy.
		col := c[:k:k]
		i := 0
		for ; i+4 <= m; i += 4 {
			b0, b1, b2, b3 := b[i*ldb], b[(i+1)*ldb], b[(i+2)*ldb], b[(i+3)*ldb]
			a0 := a[i*lda:][:len(col)]
			a1 := a[(i+1)*lda:][:len(col)]
			a2 := a[(i+2)*lda:][:len(col)]
			a3 := a[(i+3)*lda:][:len(col)]
			for j, y := range col {
				col[j] = y + b0*a0[j] + b1*a1[j] + b2*a2[j] + b3*a3[j]
			}
		}
		for ; i < m; i++ {
			Axpy(b[i*ldb], a[i*lda:i*lda+k], col)
		}
		return
	}
	block(k, n, m, a, lda, 1, b, ldb, c, ldc)
}

// SqDist computes c[i*ldc+j] = Σ_q (a[i*lda+q] − b[q*ldb+j])², the squared
// Euclidean distance between row i of the m×k A and column j of the k×n B
// (k-means' inner.prod(X, t(C), "euclidean", "+")). C's previous contents
// are overwritten: each element starts from 0 and adds its terms for q
// ascending. Full 2×4 tiles go through sqTile2x4, a pair of fringe columns
// of a row pair through sqTile2x2, a last fringe column through sqTile2x1,
// and a last odd row through sqDist.
func SqDist(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	r := 0
	for ; r+2 <= m; r += 2 {
		ar, cr := a[r*lda:], c[r*ldc:]
		j := 0
		for ; j+4 <= n; j += 4 {
			sqTile2x4(k, ar, lda, b[j:], ldb, cr[j:], ldc)
		}
		if j+2 <= n {
			sqTile2x2(k, ar, lda, b[j:], ldb, cr[j:], ldc)
			j += 2
		}
		if j < n {
			sqTile2x1(k, ar, lda, b[j:], ldb, cr[j:], ldc)
		}
	}
	if r < m {
		ar, cr := a[r*lda:r*lda+k], c[r*ldc:]
		for j := 0; j < n; j++ {
			cr[j] = sqDist(ar, b[j:], ldb)
		}
	}
}

// Syrk computes the upper triangle of C += Aᵀ*A for row-major m×k A into
// k×k C, leaving the strictly-lower triangle untouched (SymmetrizeLower
// mirrors it). Each pair of rows p, p+1 of C computes its diagonal element
// (p,p) alone and then columns p+1.. through block.
func Syrk(m, k int, a []float64, lda int, c []float64, ldc int) {
	for p := 0; p < k; p += 2 {
		d := p*ldc + p
		c[d] = dot(c[d], m, a[p:], lda, a[p:], lda)
		if p+1 < k {
			block(2, k-p-1, m, a[p:], lda, 1, a[p+1:], lda, c[d+1:], ldc)
		}
	}
}

// SymmetrizeLower copies the upper triangle of a k×k matrix into the lower
// triangle (completing a Syrk result).
func SymmetrizeLower(k int, c []float64, ldc int) {
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			c[i*ldc+j] = c[j*ldc+i]
		}
	}
}

// block computes, for the rows×cols block of C at c (row stride ldc),
//
//	c[r*ldc+j] += a[q*aStep+r*aRow] * b[q*ldb+j]   for q = 0, 1, …, kLen-1
//
// in that order. The strides cast all three kernels as one loop: Gemm
// walks A along a row (aStep 1, aRow lda), GemmTA and Syrk walk it down a
// column (aStep lda, aRow 1). Full 2×4 tiles go through tile2x4, a pair of
// fringe columns of a row pair through tile2x2, a last fringe column
// through tile2x1, and a last odd row through dot.
func block(rows, cols, kLen int, a []float64, aStep, aRow int, b []float64, ldb int, c []float64, ldc int) {
	r := 0
	for ; r+2 <= rows; r += 2 {
		ar, cr := a[r*aRow:], c[r*ldc:]
		j := 0
		for ; j+4 <= cols; j += 4 {
			tile2x4(kLen, ar, aStep, aRow, b[j:], ldb, cr[j:], ldc)
		}
		if j+2 <= cols {
			tile2x2(kLen, ar, aStep, aRow, b[j:], ldb, cr[j:], ldc)
			j += 2
		}
		if j < cols {
			tile2x1(kLen, ar, aStep, aRow, b[j:], ldb, cr[j:], ldc)
		}
	}
	if r < rows {
		ar, cr := a[r*aRow:], c[r*ldc:]
		for j := 0; j < cols; j++ {
			cr[j] = dot(cr[j], kLen, ar, aStep, b[j:], ldb)
		}
	}
}

// tile2x4 is block's register tile: rows 0 and 1 (a[0] and a[aRow] at
// q = 0) times columns 0..3 of b, accumulated into c[0:4] and
// c[ldc:ldc+4].
func tile2x4(kLen int, a []float64, aStep, aRow int, b []float64, ldb int, c []float64, ldc int) {
	c0 := c[:4:4]
	c1 := c[ldc : ldc+4 : ldc+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	ia, ib := 0, 0
	for q := 0; q < kLen; q++ {
		x0, x1 := a[ia], a[ia+aRow]
		bq := b[ib : ib+4 : ib+4]
		b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
		c00 += x0 * b0
		c01 += x0 * b1
		c02 += x0 * b2
		c03 += x0 * b3
		c10 += x1 * b0
		c11 += x1 * b1
		c12 += x1 * b2
		c13 += x1 * b3
		ia += aStep
		ib += ldb
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// tile2x2 is tile2x4 for a pair of fringe columns.
func tile2x2(kLen int, a []float64, aStep, aRow int, b []float64, ldb int, c []float64, ldc int) {
	c0 := c[:2:2]
	c1 := c[ldc : ldc+2 : ldc+2]
	c00, c01, c10, c11 := c0[0], c0[1], c1[0], c1[1]
	ia, ib := 0, 0
	for q := 0; q < kLen; q++ {
		x0, x1 := a[ia], a[ia+aRow]
		bq := b[ib : ib+2 : ib+2]
		b0, b1 := bq[0], bq[1]
		c00 += x0 * b0
		c01 += x0 * b1
		c10 += x1 * b0
		c11 += x1 * b1
		ia += aStep
		ib += ldb
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
}

// dot returns s + Σ a[q*aStep]*b[q*ldb] for q = 0, 1, …, kLen-1, added in
// that order.
func dot(s float64, kLen int, a []float64, aStep int, b []float64, ldb int) float64 {
	ia, ib := 0, 0
	for q := 0; q < kLen; q++ {
		s += a[ia] * b[ib]
		ia += aStep
		ib += ldb
	}
	return s
}

// tile2x1 is tile2x4 for one fringe column: two independent chains where
// two dot calls would be one dependent chain each and load b twice.
func tile2x1(kLen int, a []float64, aStep, aRow int, b []float64, ldb int, c []float64, ldc int) {
	c0, c1 := c[0], c[ldc]
	ia, ib := 0, 0
	for q := 0; q < kLen; q++ {
		bq := b[ib]
		c0 += a[ia] * bq
		c1 += a[ia+aRow] * bq
		ia += aStep
		ib += ldb
	}
	c[0], c[ldc] = c0, c1
}

// sqTile2x4 is SqDist's register tile: rows 0 and 1 of a (a[0:] and
// a[lda:]) against columns 0..3 of b, written to c[0:4] and c[ldc:ldc+4].
func sqTile2x4(kLen int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	a0 := a[:kLen:kLen]
	a1 := a[lda:][:kLen:kLen]
	var s00, s01, s02, s03, s10, s11, s12, s13 float64
	ib := 0
	for q := range a0 {
		x0, x1 := a0[q], a1[q]
		bq := b[ib : ib+4 : ib+4]
		b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
		d := x0 - b0
		s00 += d * d
		d = x0 - b1
		s01 += d * d
		d = x0 - b2
		s02 += d * d
		d = x0 - b3
		s03 += d * d
		d = x1 - b0
		s10 += d * d
		d = x1 - b1
		s11 += d * d
		d = x1 - b2
		s12 += d * d
		d = x1 - b3
		s13 += d * d
		ib += ldb
	}
	c0 := c[:4:4]
	c1 := c[ldc : ldc+4 : ldc+4]
	c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
	c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
}

// sqTile2x2 is sqTile2x4 for a pair of fringe columns.
func sqTile2x2(kLen int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	a0 := a[:kLen:kLen]
	a1 := a[lda:][:kLen:kLen]
	var s00, s01, s10, s11 float64
	ib := 0
	for q := range a0 {
		x0, x1 := a0[q], a1[q]
		bq := b[ib : ib+2 : ib+2]
		b0, b1 := bq[0], bq[1]
		d := x0 - b0
		s00 += d * d
		d = x0 - b1
		s01 += d * d
		d = x1 - b0
		s10 += d * d
		d = x1 - b1
		s11 += d * d
		ib += ldb
	}
	c0 := c[:2:2]
	c1 := c[ldc : ldc+2 : ldc+2]
	c0[0], c0[1] = s00, s01
	c1[0], c1[1] = s10, s11
}

// sqTile2x1 is sqTile2x4 for one fringe column.
func sqTile2x1(kLen int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	a0 := a[:kLen:kLen]
	a1 := a[lda:][:kLen:kLen]
	var s0, s1 float64
	ib := 0
	for q := range a0 {
		y := b[ib]
		d := a0[q] - y
		s0 += d * d
		d = a1[q] - y
		s1 += d * d
		ib += ldb
	}
	c[0], c[ldc] = s0, s1
}

// sqDist returns Σ_q (a[q] − b[q*ldb])² for q ascending from 0.
func sqDist(a, b []float64, ldb int) float64 {
	var s float64
	ib := 0
	for _, x := range a {
		d := x - b[ib]
		s += d * d
		ib += ldb
	}
	return s
}
