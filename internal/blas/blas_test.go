package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The reference loops below are the plain in-order triple loops each kernel
// promises to match bit for bit: every C element starts from its old value
// and adds its terms in reduction order.

func refGemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if n == 1 && ldb == 1 { // Gemm's matrix-vector path sums each row with Dot
		for i := 0; i < m; i++ {
			c[i*ldc] += Dot(a[i*lda:i*lda+k], b[:k])
		}
		return
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				c[i*ldc+j] += a[i*lda+p] * b[p*ldb+j]
			}
		}
	}
}

func refGemmTA(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				c[p*ldc+j] += a[i*lda+p] * b[i*ldb+j]
			}
		}
	}
}

func refSyrk(m, k int, a []float64, lda int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			for j := p; j < k; j++ {
				c[p*ldc+j] += a[i*lda+p] * a[i*lda+j]
			}
		}
	}
}

// refSqDist is SqDist's in-order loop: each element starts from 0 and adds
// (a - b)² for q ascending.
func refSqDist(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for q := 0; q < k; q++ {
				d := a[i*lda+q] - b[q*ldb+j]
				s += d * d
			}
			c[i*ldc+j] = s
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// shape draws a dimension in 1…300, biased toward values below and just
// around the 2×4 tile so every fringe path is hit.
func shape(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return 1 + rng.Intn(9)
	}
	return 1 + rng.Intn(300)
}

// lead draws a leading dimension: the width, or wider (a strided view).
func lead(rng *rand.Rand, width int) int {
	if rng.Intn(2) == 0 {
		return width
	}
	return width + 1 + rng.Intn(5)
}

// sameBits reports the first index where got and want differ in any bit.
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// check runs f under quick.Check with a per-seed rng and fails on the first
// seed whose result differs.
func check(t *testing.T, count int, f func(rng *rand.Rand) error) {
	t.Helper()
	var failure error
	prop := func(seed int64) bool {
		if err := f(rand.New(rand.NewSource(seed))); err != nil {
			failure = fmt.Errorf("seed %d: %w", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(failure)
	}
}

// TestGemmMatchesNaive: Gemm is bit-identical to the in-order triple loop
// over random shapes and strided views, from a random nonzero C.
func TestGemmMatchesNaive(t *testing.T) {
	check(t, 40, func(rng *rand.Rand) error {
		m, n, k := shape(rng), shape(rng), shape(rng)
		lda, ldb, ldc := lead(rng, k), lead(rng, n), lead(rng, n)
		a, b := randSlice(rng, m*lda), randSlice(rng, k*ldb)
		got := randSlice(rng, m*ldc)
		want := append([]float64(nil), got...)
		Gemm(m, n, k, a, lda, b, ldb, got, ldc)
		refGemm(m, n, k, a, lda, b, ldb, want, ldc)
		return sameBits(got, want)
	})
}

// TestParallelGemmMatchesSerial: every row split gives Gemm's bits, on the
// matrix-vector path (n = 1, ldb = 1) as well as the tiled one.
func TestParallelGemmMatchesSerial(t *testing.T) {
	check(t, 30, func(rng *rand.Rand) error {
		m, n, k := parallelMinRows+rng.Intn(200), 2+rng.Intn(90), shape(rng)
		lda, ldb, ldc := lead(rng, k), lead(rng, n), lead(rng, n)
		if rng.Intn(3) == 0 {
			n, ldb, ldc = 1, 1, lead(rng, 1)
		}
		a, b := randSlice(rng, m*lda), randSlice(rng, k*ldb)
		serial := randSlice(rng, m*ldc)
		par := append([]float64(nil), serial...)
		Gemm(m, n, k, a, lda, b, ldb, serial, ldc)
		ParallelGemm(2+rng.Intn(6), m, n, k, a, lda, b, ldb, par, ldc)
		return sameBits(par, serial)
	})
}

// TestGemmMatrixVector: Gemm's matrix-vector path (n = 1, ldb = 1) gives
// each row Dot's bits, c[i] += Dot(row i, x), for every row count around the
// four-row group (m = 0…9), every Dot tail (k = 0…9) and the logistic width
// (k = 40), over strided A and C, and with rows holding NaN, ±Inf and a
// 0 × Inf term.
func TestGemmMatrixVector(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := rand.New(rand.NewSource(11))
	for m := 0; m <= 9; m++ {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 40} {
			for _, special := range []string{"finite", "NaN", "Inf", "-Inf", "0*Inf"} {
				lda, ldc := lead(rng, k), lead(rng, 1)
				a, x := randSlice(rng, m*lda), randSlice(rng, k)
				if k > 0 {
					for i := 0; i < m; i++ {
						q := rng.Intn(k)
						switch special {
						case "NaN":
							a[i*lda+q] = nan
						case "Inf":
							a[i*lda+q] = inf
						case "-Inf":
							a[i*lda+q] = -inf
						case "0*Inf":
							a[i*lda+q], x[q] = 0, inf
						}
					}
				}
				got := randSlice(rng, m*ldc)
				want := append([]float64(nil), got...)
				Gemm(m, 1, k, a, lda, x, 1, got, ldc)
				for i := 0; i < m; i++ {
					want[i*ldc] += Dot(a[i*lda:i*lda+k], x)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("m=%d k=%d %s: %v", m, k, special, err)
				}
			}
		}
	}
}

// TestGemmTA: GemmTA is bit-identical to the row-ordered reference, over
// random shapes and, on the matrix-vector path (n = 1, ldc = 1), for
// m = 1…9, so the 4-row body and every tail length are pinned, including a
// row whose 0 meets an Inf.
func TestGemmTA(t *testing.T) {
	check(t, 40, func(rng *rand.Rand) error {
		m, n, k := shape(rng), shape(rng), shape(rng) // A m×k, B m×n, C k×n
		lda, ldb, ldc := lead(rng, k), lead(rng, n), lead(rng, n)
		a, b := randSlice(rng, m*lda), randSlice(rng, m*ldb)
		got := randSlice(rng, k*ldc)
		want := append([]float64(nil), got...)
		GemmTA(m, n, k, a, lda, b, ldb, got, ldc)
		refGemmTA(m, n, k, a, lda, b, ldb, want, ldc)
		return sameBits(got, want)
	})
	rng := rand.New(rand.NewSource(7))
	for m := 1; m <= 9; m++ {
		for _, k := range []int{1, 3, 40} {
			lda, ldb := lead(rng, k), lead(rng, 1)
			a, b := randSlice(rng, m*lda), randSlice(rng, m*ldb)
			for _, zeroInf := range []bool{false, true} {
				if zeroInf {
					// Row m-1 is all +Inf and its b is 0: every element
					// meets 0 × Inf, in the 4-row body when m%4 == 0 and
					// in the Axpy tail otherwise.
					for q := 0; q < k; q++ {
						a[(m-1)*lda+q] = math.Inf(1)
					}
					b[(m-1)*ldb] = 0
				}
				got := randSlice(rng, k)
				want := append([]float64(nil), got...)
				GemmTA(m, 1, k, a, lda, b, ldb, got, 1)
				refGemmTA(m, 1, k, a, lda, b, ldb, want, 1)
				if err := sameBits(got, want); err != nil {
					t.Fatalf("n=1 m=%d k=%d zeroInf=%v: %v", m, k, zeroInf, err)
				}
				if zeroInf && !math.IsNaN(got[0]) {
					t.Fatalf("n=1 m=%d k=%d: 0 × Inf gave %v, want NaN", m, k, got[0])
				}
			}
		}
	}
}

// TestSqDist: SqDist is bit-identical to the in-order loop over random
// shapes and strided views, and overwrites whatever C held.
func TestSqDist(t *testing.T) {
	check(t, 60, func(rng *rand.Rand) error {
		m, n, k := shape(rng), shape(rng), shape(rng) // A m×k, B k×n, C m×n
		lda, ldb, ldc := lead(rng, k), lead(rng, n), lead(rng, n)
		a, b := randSlice(rng, m*lda), randSlice(rng, k*ldb)
		got := randSlice(rng, m*ldc)
		want := append([]float64(nil), got...)
		SqDist(m, n, k, a, lda, b, ldb, got, ldc)
		refSqDist(m, n, k, a, lda, b, ldb, want, ldc)
		return sameBits(got, want)
	})
	// Every row parity and every n % 4, at the k-means width.
	rng := rand.New(rand.NewSource(3))
	for m := 1; m <= 4; m++ {
		for n := 1; n <= 8; n++ {
			const k = 32
			a, b := randSlice(rng, m*k), randSlice(rng, k*n)
			got, want := randSlice(rng, m*n), make([]float64, m*n)
			SqDist(m, n, k, a, k, b, n, got, n)
			refSqDist(m, n, k, a, k, b, n, want, n)
			if err := sameBits(got, want); err != nil {
				t.Fatalf("m=%d n=%d: %v", m, n, err)
			}
		}
	}
}

// TestSyrk: Syrk's upper triangle is bit-identical to the row-ordered
// reference and every strictly-lower element of C keeps its bits.
func TestSyrk(t *testing.T) {
	check(t, 40, func(rng *rand.Rand) error {
		m, k := shape(rng), shape(rng)
		lda, ldc := lead(rng, k), lead(rng, k)
		a := randSlice(rng, m*lda)
		got := randSlice(rng, k*ldc)
		want := append([]float64(nil), got...)
		Syrk(m, k, a, lda, got, ldc)
		refSyrk(m, k, a, lda, want, ldc)
		return sameBits(got, want)
	})
}

// TestZeroTimesInf: no kernel skips a zero operand, so a zero against an
// infinity yields NaN on every path (Dot, Axpy, tiles, fringe columns, an
// odd last row), as R's %*% and crossprod do.
func TestZeroTimesInf(t *testing.T) {
	inf := math.Inf(1)
	for _, d := range []int{1, 2, 3, 5, 7} {
		zero, infs := make([]float64, d*d), make([]float64, d*d)
		for i := range infs {
			infs[i] = inf
		}
		wantNaN := func(kernel string, c []float64, from int) {
			t.Helper()
			for i, v := range c[from:] {
				if !math.IsNaN(v) {
					t.Fatalf("%s d=%d: element %d = %v, want NaN", kernel, d, from+i, v)
				}
			}
		}
		c := make([]float64, d*d)
		Gemm(d, d, d, zero, d, infs, d, c, d)
		wantNaN("Gemm", c, 0)
		c = make([]float64, d*d)
		GemmTA(d, d, d, zero, d, infs, d, c, d)
		wantNaN("GemmTA", c, 0)
		// Column 0 infinite, the rest zero: row 0 of C right of the
		// diagonal is all 0 × Inf terms.
		x := make([]float64, d*d)
		for i := 0; i < d; i++ {
			x[i*d] = inf
		}
		c = make([]float64, d*d)
		Syrk(d, d, x, d, c, d)
		wantNaN("Syrk", c[:d], 1)
	}
}

// TestSqDistNonFinite: a NaN or an Inf operand reaches every output it
// touches on every SqDist path (tile, fringe column, odd last row): a NaN
// gives NaN, an Inf against a finite value gives +Inf, and Inf against the
// same Inf gives NaN (Inf − Inf).
func TestSqDistNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, d := range []int{1, 2, 3, 5, 7} {
		const k = 3
		for _, tc := range []struct {
			name   string
			av, bv float64
			check  func(float64) bool
		}{
			{"NaN in A", nan, 0, math.IsNaN},
			{"Inf in A", inf, 0, func(v float64) bool { return math.IsInf(v, 1) }},
			{"Inf in A and B", inf, inf, math.IsNaN},
		} {
			// Column q = 1 of A and row q = 1 of B hold the values; every
			// output's sum has one term built from them.
			a, b := make([]float64, d*k), make([]float64, k*d)
			for i := 0; i < d; i++ {
				a[i*k+1] = tc.av
				b[1*d+i] = tc.bv
			}
			c := make([]float64, d*d)
			SqDist(d, d, k, a, k, b, d, c, d)
			for i, v := range c {
				if !tc.check(v) {
					t.Fatalf("%s d=%d: element %d = %v", tc.name, d, i, v)
				}
			}
		}
	}
}

func TestLevel1(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot=%g", got)
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy=%v", y)
	}
	// Unrolled Dot tail handling.
	a := []float64{1, 1, 1, 1, 1, 1, 1}
	if got := Dot(a, a); got != 7 {
		t.Fatalf("Dot tail=%g", got)
	}
}

// The benchmarks run each kernel at the chunk shapes the engine feeds it:
// im_blas's 256-column matrix in 32-row chunks (64 KiB Pcache), the GMM and
// k-means steps of im_chain on 32-column data in 256-row chunks, and its
// logistic gradient on 40-column data in 204-row chunks. They report the
// kernel's rate in GFLOP/s; the matrix-vector shape (logistic's X %*% w)
// also reports ns per element of A.

type benchShape struct {
	name    string
	m, n, k int
}

func benchKernel(b *testing.B, flops float64, f func()) {
	b.Helper()
	f()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range []benchShape{
		{"im_blas/m=32,k=256,n=64", 32, 64, 256},
		{"gmm/m=256,k=32,n=32", 256, 32, 32},
		{"logistic/m=204,k=40,n=1", 204, 1, 40},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y, c := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), make([]float64, s.m*s.n)
			benchKernel(b, 2*float64(s.m*s.n*s.k), func() { Gemm(s.m, s.n, s.k, x, s.k, y, s.n, c, s.n) })
			if s.n == 1 {
				// The matrix-vector product reads each element of A once.
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.m*s.k), "ns/elem")
			}
		})
	}
}

func BenchmarkGemmTA(b *testing.B) {
	for _, s := range []benchShape{
		{"im_blas/m=32,k=256,n=32", 32, 32, 256},
		{"gmm/m=256,k=32,n=32", 256, 32, 32},
		{"gradient/m=204,k=40,n=1", 204, 1, 40},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y, c := randSlice(rng, s.m*s.k), randSlice(rng, s.m*s.n), make([]float64, s.k*s.n)
			benchKernel(b, 2*float64(s.m*s.n*s.k), func() { GemmTA(s.m, s.n, s.k, x, s.k, y, s.n, c, s.n) })
		})
	}
}

func BenchmarkSyrk(b *testing.B) {
	for _, s := range []benchShape{
		{"im_blas/m=32,k=256", 32, 256, 256},
		{"gmm/m=256,k=32", 256, 32, 32},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, c := randSlice(rng, s.m*s.k), make([]float64, s.k*s.k)
			benchKernel(b, float64(s.m*s.k*(s.k+1)), func() { Syrk(s.m, s.k, x, s.k, c, s.k) })
		})
	}
}

// BenchmarkSqDist runs the k-means distance step of im_chain: 256-row chunks
// of 32-column data against 10 centres, 3 flops (subtract, multiply, add)
// per term.
func BenchmarkSqDist(b *testing.B) {
	s := benchShape{"kmeans/m=256,k=32,n=10", 256, 10, 32}
	b.Run(s.name, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x, y, c := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), make([]float64, s.m*s.n)
		benchKernel(b, 3*float64(s.m*s.n*s.k), func() { SqDist(s.m, s.n, s.k, x, s.k, y, s.n, c, s.n) })
	})
}
