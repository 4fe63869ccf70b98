package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// kernelPool is the operand pool of TestKernelsMatchScalar: every special
// value a chunk kernel could mishandle, then seeded normals.
func kernelPool() []float64 {
	pool := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1, -1,
	}
	rng := rand.New(rand.NewSource(7))
	for len(pool) < 64 {
		pool = append(pool, rng.NormFloat64()*3)
	}
	return pool
}

// kernelLengths runs every loop tail (0–17) and one engine-sized chunk, long
// enough that the pair (a[i], b[i]) takes every pair of pool values.
var kernelLengths = func() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 8192)
}()

// kernelOperands fills a and b from the pool so that, over a long chunk,
// b[i] meets every pool value at every a[i].
func kernelOperands(pool []float64, n int) (a, b []float64) {
	p := len(pool)
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = pool[i%p]
		b[i] = pool[(i/p+3*i)%p]
	}
	return a, b
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func names[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestKernelsMatchScalar: every registered chunk kernel returns exactly the
// bits of a plain loop over its scalar F (or Step), NaN, ±Inf, ±0 and
// subnormals included, at every loop tail and with dst aliasing an input.
func TestKernelsMatchScalar(t *testing.T) {
	pool := kernelPool()
	for _, name := range names(unaryByName) {
		u := unaryByName[name]
		for _, n := range kernelLengths {
			src, _ := kernelOperands(pool, n)
			want := make([]float64, n)
			for i, v := range src {
				want[i] = u.F(v)
			}
			got := make([]float64, n)
			u.ApplyV(got, src)
			sameBits(t, name+" ApplyV", got, want)
			got = append([]float64(nil), src...)
			u.ApplyV(got, got)
			sameBits(t, name+" ApplyV in place", got, want)
		}
	}
	for _, name := range names(binaryByName) {
		f := binaryByName[name]
		for _, n := range kernelLengths {
			a, b := kernelOperands(pool, n)
			want := make([]float64, n)
			for i := range want {
				want[i] = f.F(a[i], b[i])
			}
			got := make([]float64, n)
			f.ApplyVV(got, a, b)
			sameBits(t, name+" ApplyVV", got, want)
			got = append([]float64(nil), a...)
			f.ApplyVV(got, got, b)
			sameBits(t, name+" ApplyVV dst=a", got, want)
			got = append([]float64(nil), b...)
			f.ApplyVV(got, a, got)
			sameBits(t, name+" ApplyVV dst=b", got, want)
			for _, s := range pool {
				for i := range want {
					want[i] = f.F(a[i], s)
				}
				got = append(got[:0], a...)
				f.ApplyVS(got, got, s)
				sameBits(t, name+" ApplyVS", got, want)
				for i := range want {
					want[i] = f.F(s, a[i])
				}
				got = append(got[:0], a...)
				f.ApplySV(got, s, got)
				sameBits(t, name+" ApplySV", got, want)
			}
		}
	}
	for _, name := range names(aggByName) {
		f := aggByName[name]
		for _, n := range kernelLengths {
			xs, _ := kernelOperands(pool, n)
			for _, acc := range []float64{f.Init, math.NaN(), 0, -2.5} {
				want := acc
				for _, v := range xs {
					want = f.Step(want, v)
				}
				sameBits(t, name+" StepV", []float64{f.StepV(acc, xs)}, []float64{want})
			}
		}
	}
	// min and max keep math.Min's and math.Max's bits on every pair of pool
	// values, so swapping the assembly for an inlinable Step moved nothing.
	a, b := kernelOperands(pool, 8192)
	for _, c := range []struct {
		f    *AggFunc
		math func(x, y float64) float64
	}{{AggMin, math.Min}, {AggMax, math.Max}} {
		got, want := make([]float64, len(a)), make([]float64, len(a))
		for i := range a {
			got[i], want[i] = c.f.Step(a[i], b[i]), c.math(a[i], b[i])
		}
		sameBits(t, c.f.Name+" Step against math", got, want)
	}
	// The cum.col chunk loop: every aggregate, widths 1 to 5, 9 and 40, row
	// counts around the sum's four-row sweep (1…9), a carry entering with
	// special values.
	for _, name := range names(aggByName) {
		f := aggByName[name]
		for _, nc := range []int{1, 2, 3, 4, 5, 9, 40} {
			for cr := 1; cr <= 9; cr++ {
				in, _ := kernelOperands(pool, cr*nc)
				run := make([]float64, nc)
				for j := range run {
					run[j] = pool[(j*5)%len(pool)]
				}
				wantRun := append([]float64(nil), run...)
				wantCol := make([]float64, cr*nc)
				for r := 0; r < cr; r++ {
					for j := 0; j < nc; j++ {
						wantRun[j] = f.Step(wantRun[j], in[r*nc+j])
						wantCol[r*nc+j] = wantRun[j]
					}
				}
				out := make([]float64, cr*nc)
				scanCols(f, run, out, in, cr)
				sameBits(t, fmt.Sprintf("%s cum.col nc=%d cr=%d", name, nc, cr), out, wantCol)
				sameBits(t, fmt.Sprintf("%s cum.col carry nc=%d cr=%d", name, nc, cr), run, wantRun)
			}
		}
	}
}

// TestComparisonLanesMatchScalar: every comparison and logical kernel,
// which handle four elements per iteration, returns its F's bits in every
// lane of the four-wide body and of the tail (lengths 0…9), with NaN, +0 or
// −0 in that lane on either side and as the scalar operand.
func TestComparisonLanesMatchScalar(t *testing.T) {
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1)}
	ops := []*Binary{BinEq, BinNe, BinLt, BinLe, BinGt, BinGe, BinAnd, BinOr}
	for n := 0; n <= 9; n++ {
		base := make([]float64, n)
		for i := range base {
			base[i] = float64(i%3 - 1) // -1, 0, 1: equal, less and greater all occur
		}
		for lane := 0; lane < max(n, 1); lane++ {
			for _, v := range specials {
				a := append([]float64(nil), base...)
				b := make([]float64, n)
				for i := range b {
					b[i] = float64((i+1)%3 - 1)
				}
				if n > 0 {
					a[lane] = v
				}
				for _, f := range ops {
					for _, pair := range [][2][]float64{{a, b}, {b, a}} {
						x, y := pair[0], pair[1]
						want, got := make([]float64, n), make([]float64, n)
						for i := range want {
							want[i] = f.F(x[i], y[i])
						}
						f.ApplyVV(got, x, y)
						sameBits(t, fmt.Sprintf("%s VV n=%d lane=%d v=%v", f.Name, n, lane, v), got, want)
					}
					for _, sc := range append([]float64{0.5}, specials...) {
						want, got := make([]float64, n), make([]float64, n)
						for i := range want {
							want[i] = f.F(a[i], sc)
						}
						f.ApplyVS(got, a, sc)
						sameBits(t, fmt.Sprintf("%s VS n=%d lane=%d v=%v s=%v", f.Name, n, lane, v, sc), got, want)
						for i := range want {
							want[i] = f.F(sc, a[i])
						}
						f.ApplySV(got, sc, a)
						sameBits(t, fmt.Sprintf("%s SV n=%d lane=%d v=%v s=%v", f.Name, n, lane, v, sc), got, want)
					}
				}
				want, got := make([]float64, n), make([]float64, n)
				for i := range want {
					want[i] = UnaryNot.F(a[i])
				}
				UnaryNot.ApplyV(got, a)
				sameBits(t, fmt.Sprintf("! n=%d lane=%d v=%v", n, lane, v), got, want)
			}
		}
	}
}

// TestColSumFoldMatchesRowByRow: the column fold (SinkAggCol), which adds
// four rows per sweep for AggSum, leaves every column with the bits of a
// row-by-row loop over Step, for every aggregate, every
// tail (cr = 1…9), at widths 1, 3 and 40, from a partial already holding −0,
// ±Inf and NaN, over rows that meet Inf with −Inf and add −0 to −0.
func TestColSumFoldMatchesRowByRow(t *testing.T) {
	pool := kernelPool()
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(5))
	for _, name := range names(aggByName) {
		f := aggByName[name]
		for _, nc := range []int{1, 3, 40} {
			for cr := 1; cr <= 9; cr++ {
				in := make([]float64, cr*nc)
				for i := range in {
					switch rng.Intn(4) {
					case 0:
						in[i] = negZero
					case 1:
						in[i] = pool[rng.Intn(len(pool))]
					default:
						in[i] = rng.NormFloat64()
					}
				}
				// Column 0 meets +Inf then −Inf.
				if cr >= 2 {
					in[0], in[nc] = math.Inf(1), math.Inf(-1)
				}
				acc := newSinkAcc(&ProgramSink{Kind: uint8(SinkAggCol), agg: f, ncolA: nc, rows: 1, cols: nc})
				for j := range acc.Data {
					acc.Data[j] = []float64{negZero, negZero, 1.5, math.Inf(1), math.NaN()}[j%5]
				}
				want := append([]float64(nil), acc.Data...)
				for r := 0; r < cr; r++ {
					for j := 0; j < nc; j++ {
						want[j] = f.Step(want[j], in[r*nc+j])
					}
				}
				if err := acc.fold(in, nil, cr); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s column fold nc=%d cr=%d", name, nc, cr), acc.Data, want)
			}
		}
	}
}

// TestKernelRSemantics pins the answers where the engine follows R, and the
// one place it cannot: there is no logical NA, so a comparison or ! with a
// NaN operand is 0, and & and | read NaN as nonzero.
func TestKernelRSemantics(t *testing.T) {
	nan := math.NaN()
	// R: round(.5 + -2:4) is -2 0 0 2 2 4 4, and round(-0.5) is -0.
	halves := []float64{-1.5, -0.5, 0.5, 1.5, 2.5, 3.5, 4.5, -2.5}
	wantRound := []float64{-2, math.Copysign(0, -1), 0, 2, 2, 4, 4, -2}
	got := make([]float64, len(halves))
	UnaryRound.ApplyV(got, halves)
	sameBits(t, "round", got, wantRound)

	signIn := []float64{nan, math.Copysign(0, -1), 0, -3, 3, math.Inf(-1)}
	UnarySign.ApplyV(got[:len(signIn)], signIn)
	if !math.IsNaN(got[0]) {
		t.Fatalf("sign(NaN) = %v, want NaN", got[0])
	}
	sameBits(t, "sign", got[1:len(signIn)], []float64{0, 0, -1, 1, -1})

	for _, c := range []struct {
		f    *Binary
		a, b float64
		want float64
	}{
		{BinEq, nan, nan, 0}, {BinNe, nan, nan, 1}, {BinNe, nan, 1, 1},
		{BinLt, nan, 1, 0}, {BinLe, 1, nan, 0}, {BinGt, nan, 1, 0}, {BinGe, 1, nan, 0},
		{BinAnd, nan, 1, 1}, {BinAnd, nan, 0, 0}, {BinOr, nan, 0, 1}, {BinOr, 0, 0, 0},
	} {
		out := []float64{0}
		c.f.ApplyVV(out, []float64{c.a}, []float64{c.b})
		if out[0] != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.f.Name, c.b, out[0], c.want)
		}
	}
	UnaryNot.ApplyV(got[:1], []float64{nan})
	if got[0] != 0 {
		t.Errorf("!NaN = %v, want 0", got[0])
	}
}

var kernelSink float64

// BenchmarkKernels times every registered chunk kernel on one 64 KiB chunk
// of uniform [0,1) data, with 0.5 as the scalar: comparisons then go either
// way at random, the worst case for a branch. copy of the same bytes is the
// ceiling. MB/s counts the chunk's input bytes.
func BenchmarkKernels(b *testing.B) {
	const n = 8192
	rng := rand.New(rand.NewSource(1))
	x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	run := func(name string, kernel func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				kernel()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
	run("copy", func() { copy(dst, x) })
	// "/" would split the benchmark name.
	label := func(name string) string { return strings.ReplaceAll(name, "/", "div") }
	for _, name := range names(unaryByName) {
		u := unaryByName[name]
		run(label(name)+"/V", func() { u.ApplyV(dst, x) })
	}
	for _, name := range names(binaryByName) {
		f := binaryByName[name]
		run(label(name)+"/VV", func() { f.ApplyVV(dst, x, y) })
		run(label(name)+"/VS", func() { f.ApplyVS(dst, x, 0.5) })
		run(label(name)+"/SV", func() { f.ApplySV(dst, 0.5, x) })
	}
	for _, name := range names(aggByName) {
		f := aggByName[name]
		if f.Name != name {
			continue // an alias such as "sum"
		}
		run("agg"+label(name)+"/StepV", func() { kernelSink = f.StepV(f.Init, x) })
	}
	// The colSums sink fold over one chunk of a 32-column partition (the
	// k-means/GMM width) and of a 40-column one (the em_* width, 204 rows):
	// the AggSum loop and the generic f.Step loop.
	for _, ncol := range []int{32, 40} {
		suffix := ""
		if ncol != 32 {
			suffix = "40"
		}
		for _, f := range []*AggFunc{AggSum, AggMax} {
			acc := newSinkAcc(&ProgramSink{Kind: uint8(SinkAggCol), agg: f, ncolA: ncol, rows: 1, cols: ncol})
			run("colfold"+f.Name+"/fold"+suffix, func() { _ = acc.fold(x, nil, n/ncol) })
		}
	}
	// cum.col (carry in run) over the same chunk at the em_* width: the
	// AggSum loop cumsum runs and the generic f.Step loop.
	const ncol = 40
	carry := make([]float64, ncol)
	for _, f := range []*AggFunc{AggSum, AggMax} {
		run("cumcol"+f.Name+"/scan40", func() { scanCols(f, carry, dst, x, n/ncol) })
	}
}
