package blas

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// Every row parity and every n % 4 (tiles, the fringe pair, a last
	// column), at the k-means width.
	rng := rand.New(rand.NewSource(3))
	for m := 1; m <= 4; m++ {
		for n := 1; n <= 11; n++ {
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

// TestZeroTimesInf: a zero against an infinity yields NaN on every path
// (Dot, Axpy, tiles, fringe columns, an odd last row), as R's %*% and
// crossprod do; GemmTail skips a zero tail only where A is finite, so an
// infinity facing one still gives NaN.
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
	// GemmTail against an upper-triangular B: the last column of A holds
	// an infinity or a NaN, which meets a skipped zero in every column
	// group but the last, so the cut must not be taken for that row.
	for _, d := range []int{3, 5, 6, 7, 9} {
		u := make([]float64, d*d)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				u[i*d+j] = 1
			}
		}
		tails := ZeroTails(d, d, u, d)
		if tails == nil {
			t.Fatalf("d=%d: no zero tail found in an upper-triangular B", d)
		}
		for _, v := range []float64{inf, -inf, math.NaN()} {
			for row := 0; row < d; row++ { // the non-finite row: each of a pair, or the odd last row
				a := make([]float64, d*d)
				for i := range a {
					a[i] = 1
				}
				a[row*d+d-1] = v
				c := make([]float64, d*d)
				GemmTail(d, d, d, a, d, u, d, tails, c, d)
				for j, x := range c[row*d : (row+1)*d] {
					if !math.IsNaN(x) && !(j == d-1 && math.IsInf(x, 0)) {
						t.Fatalf("GemmTail d=%d A[%d,%d]=%v: C[%d,%d] = %v, want NaN", d, row, d-1, v, row, j, x)
					}
				}
			}
		}
	}
}

// specials are the values the zero-tail checks inject into A: the ones for
// which a·0 is not +0 (±Inf, NaN give NaN; negative values and −0 give −0),
// and finite values large enough that their sum overflows.
var specials = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), -1, 1e308, -1e308}

// groupTails draws a tail per column group of a k×n B (groupWidth: Gemm's
// full 4-column tiles, a fringe pair, a last column) with tail(), and
// returns it per column, as ZeroTails reports it.
func groupTails(n int, tail func() int) []int {
	tails := make([]int, n)
	for j0, w := 0, 4; j0 < n; j0 += w {
		w = groupWidth(j0, n)
		q := tail()
		for j := j0; j < j0+w; j++ {
			tails[j] = q
		}
	}
	return tails
}

// zeroTailB fills the k×n B (row stride ldb) with values from val, then
// zeroes each column j from row tails[j] on, with +0 or, where negZero
// says, −0; row tails[j]−1 keeps a nonzero.
func zeroTailB(n, k int, b []float64, ldb int, tails []int, val func() float64, negZero func() bool) {
	for q := 0; q < k; q++ {
		for j := 0; j < n; j++ {
			v := val()
			switch {
			case q >= tails[j] && negZero():
				v = math.Copysign(0, -1)
			case q >= tails[j]:
				v = 0
			case q == tails[j]-1 && v == 0:
				v = 1
			}
			b[q*ldb+j] = v
		}
	}
}

// gemmTailMatches runs GemmTail on B's zero tails against the dense path
// (C zeroed, then Gemm, whose n > 1 path is block) and reports the first
// bit that differs. wantTails are the tails B was built with, per column.
func gemmTailMatches(m, n, k int, a []float64, lda int, b []float64, ldb int, wantTails []int, ldc int) error {
	tails := ZeroTails(n, k, b, ldb)
	cut := false
	for _, q := range wantTails {
		cut = cut || q < k
	}
	switch {
	case n == 1 || !cut:
		if tails != nil {
			return fmt.Errorf("ZeroTails = %v, want nil", tails)
		}
	case !slices.Equal(tails, wantTails):
		return fmt.Errorf("ZeroTails = %v, want %v", tails, wantTails)
	}
	got := make([]float64, m*ldc)
	want := make([]float64, m*ldc)
	for i := range got {
		got[i] = math.NaN() // GemmTail overwrites C; the gaps past n keep this
		want[i] = got[i]
	}
	GemmTail(m, n, k, a, lda, b, ldb, tails, got, ldc)
	for i := 0; i < m; i++ {
		clear(want[i*ldc : i*ldc+n])
	}
	Gemm(m, n, k, a, lda, b, ldb, want, ldc)
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("m=%d n=%d k=%d tails=%v: %w", m, n, k, tails, err)
	}
	return nil
}

// TestGemmTail: GemmTail has the bits of the dense path for random shapes
// around the tile (n = 1…9, 31…33, 64; k = 1…40), random zero tails per
// column group (some ending in −0), and A holding NaN, ±Inf, −0 and
// overflowing values in random places, in row pairs and the odd last row.
func TestGemmTail(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64}
	check(t, 300, func(rng *rand.Rand) error {
		m, n, k := 1+rng.Intn(9), widths[rng.Intn(len(widths))], 1+rng.Intn(40)
		lda, ldb, ldc := lead(rng, k), lead(rng, n), lead(rng, n)
		tails := groupTails(n, func() int {
			if rng.Intn(4) == 0 {
				return k
			}
			return rng.Intn(k + 1)
		})
		b := make([]float64, k*ldb)
		zeroTailB(n, k, b, ldb, tails, rng.NormFloat64, func() bool { return rng.Intn(3) == 0 })
		a := randSlice(rng, m*lda)
		for range rng.Intn(4) {
			a[rng.Intn(m)*lda+rng.Intn(k)] = specials[rng.Intn(len(specials))]
		}
		return gemmTailMatches(m, n, k, a, lda, b, ldb, tails, ldc)
	})
}

// FuzzGemmZeroTail: GemmTail has the dense path's bits for fuzzed shapes,
// tails and values. Each byte of vals picks an entry of A from a table of
// ordinary and special values; tailBytes picks each column group's tail.
func FuzzGemmZeroTail(f *testing.F) {
	f.Add(uint8(3), uint8(32), uint8(32), []byte{0, 1, 2, 3}, []byte{9, 40, 200})
	f.Add(uint8(1), uint8(5), uint8(7), []byte{7, 8, 9}, []byte{0})
	f.Fuzz(func(t *testing.T, mb, nb, kb uint8, vals, tailBytes []byte) {
		m, n, k := 1+int(mb)%9, 1+int(nb)%66, 1+int(kb)%40
		table := append([]float64{0.5, -2, 3, 1.25}, specials...)
		pick := func(i int, from []byte) int {
			if len(from) == 0 {
				return i
			}
			return int(from[i%len(from)]) + i/len(from)
		}
		g := 0
		tails := groupTails(n, func() int { g++; return pick(g, tailBytes) % (k + 1) })
		vi := 0
		next := func() float64 { vi++; return table[pick(vi, vals)%len(table)] }
		b := make([]float64, k*n)
		zeroTailB(n, k, b, n, tails, func() float64 { return float64(1 + vi%7) }, func() bool { vi++; return pick(vi, vals)%2 == 0 })
		a := make([]float64, m*k)
		for i := range a {
			a[i] = next()
		}
		if err := gemmTailMatches(m, n, k, a, k, b, n, tails, n); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSqDistNonFinite: a NaN or an Inf operand reaches every output it
// touches on every SqDist path (tile, fringe pair, fringe column, odd last
// row): a NaN gives NaN, an Inf against a finite value gives +Inf, and Inf
// against the same Inf gives NaN (Inf − Inf).
func TestSqDistNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for d := 1; d <= 11; d++ {
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
	// GMM's whitened E-step: x %*% M with M upper triangular, through
	// GemmTail. GFLOP/s counts the terms it runs (about half of the dense
	// gmm case's), so ns/op against that case is the saving.
	b.Run("gmm-upper/m=256,k=32,n=32", func(b *testing.B) {
		const m, k, n = 256, 32, 32
		rng := rand.New(rand.NewSource(1))
		x, u, c := randSlice(rng, m*k), randSlice(rng, k*n), make([]float64, m*n)
		for q := 1; q < k; q++ {
			clear(u[q*n : q*n+q])
		}
		tails := ZeroTails(n, k, u, n)
		var terms int
		for _, q := range tails {
			terms += q
		}
		benchKernel(b, 2*float64(m*terms), func() { GemmTail(m, n, k, x, k, u, n, tails, c, n) })
	})
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
// of 32-column data against 10 centres (two 2×4 tiles and the fringe pair),
// and against 8 (tiles only) for the tile's own rate; 3 flops (subtract,
// multiply, add) per term.
func BenchmarkSqDist(b *testing.B) {
	for _, s := range []benchShape{
		{"kmeans/m=256,k=32,n=10", 256, 10, 32},
		{"tiles/m=256,k=32,n=8", 256, 8, 32},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y, c := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), make([]float64, s.m*s.n)
			benchKernel(b, 3*float64(s.m*s.n*s.k), func() { SqDist(s.m, s.n, s.k, x, s.k, y, s.n, c, s.n) })
		})
	}
}
