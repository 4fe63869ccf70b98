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

// TestParallelGemmMatchesSerial: every row split gives Gemm's bits.
func TestParallelGemmMatchesSerial(t *testing.T) {
	check(t, 20, func(rng *rand.Rand) error {
		m, n, k := parallelMinRows+rng.Intn(200), 2+rng.Intn(90), shape(rng)
		lda, ldb, ldc := lead(rng, k), lead(rng, n), lead(rng, n)
		a, b := randSlice(rng, m*lda), randSlice(rng, k*ldb)
		serial := randSlice(rng, m*ldc)
		par := append([]float64(nil), serial...)
		Gemm(m, n, k, a, lda, b, ldb, serial, ldc)
		ParallelGemm(2+rng.Intn(6), m, n, k, a, lda, b, ldb, par, ldc)
		return sameBits(par, serial)
	})
}

// TestGemmTA: GemmTA is bit-identical to the row-ordered reference.
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
// im_blas's 256-column matrix in 32-row chunks (64 KiB Pcache), and the GMM
// step of im_chain on 32-column data in 256-row chunks. They report the
// kernel's rate in GFLOP/s.

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
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y, c := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), make([]float64, s.m*s.n)
			benchKernel(b, 2*float64(s.m*s.n*s.k), func() { Gemm(s.m, s.n, s.k, x, s.k, y, s.n, c, s.n) })
		})
	}
}

func BenchmarkGemmTA(b *testing.B) {
	for _, s := range []benchShape{
		{"im_blas/m=32,k=256,n=32", 32, 32, 256},
		{"gmm/m=256,k=32,n=32", 256, 32, 32},
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
