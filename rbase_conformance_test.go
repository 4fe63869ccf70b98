package flashr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
)

// This file systematically checks every R-base function of the paper's
// Table 2 against a scalar reference implementation, across the engine's
// operand classes (tall-virtual, tall-materialized, small) and both storage
// backends. The contract is R's: these functions are elementwise or
// reductions with double semantics.

type unaryCase struct {
	name string
	ref  func(float64) float64
	// domain maps a raw normal sample into the function's domain.
	domain func(float64) float64
}

func unaryCases() []unaryCase {
	id := func(v float64) float64 { return v }
	posOnly := func(v float64) float64 { return math.Abs(v) + 0.01 }
	return []unaryCase{
		{"sqrt", math.Sqrt, posOnly},
		{"exp", math.Exp, id},
		{"log", math.Log, posOnly},
		{"log1p", math.Log1p, posOnly},
		{"abs", math.Abs, id},
		{"floor", math.Floor, id},
		{"ceiling", math.Ceil, id},
		// R rounds half to even: round(.5 + -2:4) is -2 0 0 2 2 4 4.
		{"round", math.RoundToEven, id},
		// R's sign keeps NaN.
		{"sign", func(v float64) float64 {
			if v > 0 {
				return 1
			}
			if v < 0 {
				return -1
			}
			if v == 0 {
				return 0
			}
			return v
		}, id},
		{"square", func(v float64) float64 { return v * v }, id},
		{"sigmoid", func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }, id},
	}
}

type binaryCase struct {
	name string
	ref  func(a, b float64) float64
	// bDomain adjusts the right operand (e.g. away from zero for "/").
	bDomain func(float64) float64
}

func binaryCases() []binaryCase {
	id := func(v float64) float64 { return v }
	nonzero := func(v float64) float64 {
		if math.Abs(v) < 0.1 {
			return 0.1
		}
		return v
	}
	pos := func(v float64) float64 { return math.Abs(v) + 0.1 }
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return []binaryCase{
		{"+", func(a, b float64) float64 { return a + b }, id},
		{"-", func(a, b float64) float64 { return a - b }, id},
		{"*", func(a, b float64) float64 { return a * b }, id},
		{"/", func(a, b float64) float64 { return a / b }, nonzero},
		{"^", math.Pow, pos},
		{"pmin", math.Min, id},
		{"pmax", math.Max, id},
		{"==", func(a, b float64) float64 { return b2f(a == b) }, id},
		{"!=", func(a, b float64) float64 { return b2f(a != b) }, id},
		{"<", func(a, b float64) float64 { return b2f(a < b) }, id},
		{"<=", func(a, b float64) float64 { return b2f(a <= b) }, id},
		{">", func(a, b float64) float64 { return b2f(a > b) }, id},
		{">=", func(a, b float64) float64 { return b2f(a >= b) }, id},
	}
}

// TestUnaryConformance checks every Table 2 unary against its reference, on
// tall matrices in both backends and on small matrices.
func TestUnaryConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const n, p = 1100, 3
	raw := dense.New(n, p)
	for i := range raw.Data {
		raw.Data[i] = rng.NormFloat64() * 3
	}
	// Exact halves, where rounding half to even and half away from zero
	// differ.
	copy(raw.Data, []float64{-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5, 4.5})
	for name, s := range testSessions(t) {
		for _, c := range unaryCases() {
			in := raw.Apply(c.domain)
			want := in.Apply(c.ref)
			// Tall path.
			x, err := s.FromDense(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Sapply(x, c.name).AsDense()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			if !dense.Equalish(got, want, 1e-12) {
				t.Fatalf("%s/%s tall mismatch", name, c.name)
			}
			// Small path.
			sm := Sapply(s.Small(in), c.name).mustSmall()
			if !dense.Equalish(sm, want, 1e-12) {
				t.Fatalf("%s/%s small mismatch", name, c.name)
			}
			x.Free()
		}
	}
}

// TestBinaryConformance checks every Table 2 binary against its reference,
// in matrix-matrix, matrix-scalar and scalar-matrix forms.
func TestBinaryConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const n, p = 900, 3
	ad := dense.New(n, p)
	bd := dense.New(n, p)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
		bd.Data[i] = rng.NormFloat64()
	}
	// Make some elements exactly equal so ==/!= have both outcomes.
	for i := 0; i < len(ad.Data); i += 7 {
		bd.Data[i] = ad.Data[i]
	}
	s := NewMemSession()
	for _, c := range binaryCases() {
		bAdj := bd.Apply(c.bDomain)
		wantMM := dense.New(n, p)
		for i := range wantMM.Data {
			wantMM.Data[i] = c.ref(ad.Data[i], bAdj.Data[i])
		}
		a, _ := s.FromDense(ad)
		b, _ := s.FromDense(bAdj)
		got, err := Mapply(a, b, c.name).AsDense()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !dense.Equalish(got, wantMM, 1e-12) {
			t.Fatalf("%s matrix-matrix mismatch", c.name)
		}
		// Matrix-scalar both ways.
		const sc = 0.73
		gotMS, err := Mapply(a, sc, c.name).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		gotSM, err := Mapply(sc, a, c.name).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotMS.Data {
			if !sameFloat(gotMS.Data[i], c.ref(ad.Data[i], sc)) {
				t.Fatalf("%s matrix-scalar mismatch at %d", c.name, i)
			}
			if !sameFloat(gotSM.Data[i], c.ref(sc, ad.Data[i])) {
				t.Fatalf("%s scalar-matrix mismatch at %d", c.name, i)
			}
		}
		a.Free()
		b.Free()
	}
}

// TestReductionConformance checks sum/prod/min/max/any/all/mean against
// references, including the R empty-ish identities via constant inputs.
func TestReductionConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const n = 1500
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	s := NewMemSession()
	x, _ := s.FromVec(vals)
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		sum += v
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	if got := Sum(x).MustFloat(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("sum %g want %g", got, sum)
	}
	if got := Min(x).MustFloat(); got != mn {
		t.Fatalf("min %g want %g", got, mn)
	}
	if got := Max(x).MustFloat(); got != mx {
		t.Fatalf("max %g want %g", got, mx)
	}
	if got := Mean(x).MustFloat(); math.Abs(got-sum/n) > 1e-12 {
		t.Fatalf("mean %g", got)
	}
	// any/all on logicals.
	pos := Gt(x, 0.0)
	if got := Any(pos).MustFloat(); got != 1 {
		t.Fatalf("any %g", got)
	}
	if got := All(pos).MustFloat(); got != 0 {
		t.Fatalf("all %g", got)
	}
	ones := s.Ones(n, 1)
	if got := All(Gt(ones, 0.0)).MustFloat(); got != 1 {
		t.Fatalf("all(ones>0) %g", got)
	}
	// prod on a short vector (avoids under/overflow).
	v, _ := s.FromVec([]float64{1.5, -2, 4, 0.25})
	if got := Prod(v).MustFloat(); math.Abs(got-(-3)) > 1e-12 {
		t.Fatalf("prod %g", got)
	}
}

// TestGroupByColGenOp covers the groupby.col GenOp (columns grouped by
// label, aggregated within each row) — Table 1's row-preserving groupby.
func TestGroupByColGenOp(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	const n, p, k = 800, 6, 3
	ad := dense.New(n, p)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 2, 0, 1, 0}
	want := dense.New(n, k)
	for i := 0; i < n; i++ {
		for j, g := range labels {
			want.Set(i, g, want.At(i, g)+ad.At(i, j))
		}
	}
	for name, s := range testSessions(t) {
		x, _ := s.FromDense(ad)
		got, err := GroupByCol(x, labels, k, "+").AsDense()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !dense.Equalish(got, want, 1e-12) {
			t.Fatalf("%s groupby.col mismatch", name)
		}
		x.Free()
	}
}

// TestAggColGenOpNamedFuncs exercises agg.col with non-sum folds.
func TestAggColGenOpNamedFuncs(t *testing.T) {
	s := NewMemSession()
	x, _ := s.FromRows([][]float64{
		{1, -5, 2},
		{4, 0, -2},
		{-3, 7, 9},
	})
	mx, err := AggCol(x, "max").AsVector()
	if err != nil {
		t.Fatal(err)
	}
	if mx[0] != 4 || mx[1] != 7 || mx[2] != 9 {
		t.Fatalf("agg.col max %v", mx)
	}
	mn, err := AggRow(x, "min").AsVector()
	if err != nil {
		t.Fatal(err)
	}
	if mn[0] != -5 || mn[1] != -2 || mn[2] != -3 {
		t.Fatalf("agg.row min %v", mn)
	}
}

// TestConcurrentMaterializations runs independent DAG materializations from
// multiple goroutines against one session — sessions must be safe for
// concurrent use the way an R front end driving background jobs would.
func TestConcurrentMaterializations(t *testing.T) {
	s := NewMemSession()
	const goroutines = 6
	xs := make([]*FM, goroutines)
	wants := make([]float64, goroutines)
	rng := rand.New(rand.NewSource(105))
	for g := range xs {
		d := dense.New(2000, 2)
		var sum float64
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
			sum += d.Data[i] * d.Data[i]
		}
		x, err := s.FromDense(d)
		if err != nil {
			t.Fatal(err)
		}
		xs[g] = x
		wants[g] = sum
	}
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			got, err := Sum(Square(xs[g])).Float()
			if err == nil && math.Abs(got-wants[g]) > 1e-8 {
				err = errFor(g, got, wants[g])
			}
			errs <- err
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNonFiniteConformance: NaN and ±Inf propagate through elementwise ops,
// reductions and matrix products with R's double semantics in both
// backends — including through every BLAS path of %*% and crossprod, where
// 0 × Inf is NaN whatever the shape — and sums near the top of the range
// scale each element before adding, as R does.
func TestNonFiniteConformance(t *testing.T) {
	inf := math.Inf(1)
	for name, s := range testSessions(t) {
		zero := s.Zeros(600, 2)
		b3 := s.SmallFromRows([][]float64{{1, inf, 2}, {3, 4, 5}})
		b1 := s.SmallFromRows([][]float64{{inf}, {1}})
		oneInf, err := s.GenerateMat(600, 2, func(i int64, j int) float64 {
			if i == 17 && j == 1 {
				return inf
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			desc string
			x    *FM
			want float64
		}{
			{"sum(log(0))", Sum(Log(zero)), math.Inf(-1)},
			{"sum(1/0)", Sum(Div(1.0, zero)), math.Inf(1)},
			{"sum(sqrt(-1))", Sum(Sqrt(Sub(zero, 1.0))), math.NaN()},
			{"sum(log(0) + 5)", Sum(Add(Log(zero), 5.0)), math.Inf(-1)},
			{"sum(-sqrt(-1))", Sum(Neg(Sqrt(Sub(zero, 1.0)))), math.NaN()},
			{"sum(sign(sqrt(-1)))", Sum(Sign(Sqrt(Sub(zero, 1.0)))), math.NaN()},
			// The general Gemm path and the matrix-vector (Dot) path.
			{"sum(zero %*% B), Inf in 2x3 B", Sum(MatMul(zero, b3)), math.NaN()},
			{"sum(zero %*% b), Inf in 2x1 b", Sum(MatMul(zero, b1)), math.NaN()},
			// GemmTA, and Syrk with the Inf in the last column so the zero
			// column's terms meet it.
			{"sum(crossprod(zero, log(zero)))", Sum(CrossProd2(zero, Log(zero))), math.NaN()},
			{"sum(crossprod(x)), x zero but one Inf", Sum(CrossProd(oneInf)), math.NaN()},
			// Near the top of the range R adds the scalar to each element
			// before summing: 1e308 - 1e308 is 0.
			{"colSums(1e308 - 1e308), 1000 rows", ColSums(Add(s.ConstMat(1000, 1, 1e308), -1e308)), 0},
		}
		for _, c := range cases {
			got, err := c.x.Float()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.desc, err)
			}
			if !sameFloat(got, c.want) {
				t.Fatalf("%s/%s = %v, want %v", name, c.desc, got, c.want)
			}
		}
		// R multiplies each element before summing, so 1000 · 1e305 is
		// finite. Its last bits depend on how partitions group the sum.
		got, err := Sum(Mul(s.ConstMat(1000, 1, 1e308), 1e-3)).Float()
		if err != nil {
			t.Fatalf("%s/sum(1e308 * 1e-3): %v", name, err)
		}
		if !(math.Abs(got-1e308) <= 1e-12*1e308) {
			t.Fatalf("%s/sum(1e308 * 1e-3), 1000 rows = %v, want 1e308 within 1e-12", name, got)
		}
	}
}

// TestWhichNaNConformance: row which.min/which.max skip NaN wherever it
// sits in the row, as R's which.min/which.max do, and a row of only NaNs
// yields NaN (R's integer(0)), which groupby.row then rejects as a label.
func TestWhichNaNConformance(t *testing.T) {
	nan := math.NaN()
	rows := [][]float64{{nan, 1, 0}, {1, nan, 0}, {2, 1, nan}, {nan, nan, nan}}
	wantMin := []float64{2, 2, 1, nan}
	wantMax := []float64{1, 0, 0, nan}
	for name, s := range testSessions(t) {
		x, err := s.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			desc string
			f    func(*FM) *FM
			want []float64
		}{
			{"which.min", RowWhichMin, wantMin},
			{"which.max", RowWhichMax, wantMax},
		} {
			got, err := c.f(x).AsVector()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.desc, err)
			}
			for i := range c.want {
				if !sameFloat(got[i], c.want[i]) {
					t.Fatalf("%s/%s = %v, want %v", name, c.desc, got, c.want)
				}
			}
		}
		if _, err := GroupByRow(x, RowWhichMin(x), 3, "+").AsDense(); err == nil ||
			!strings.Contains(err.Error(), "label NaN") {
			t.Fatalf("%s: groupby.row by an all-NaN row's which.min: err = %v, want a NaN label error", name, err)
		}
		x.Free()
	}
}

// sameFloat treats NaN as equal to NaN (R's ^ on negative bases with
// fractional exponents yields NaN on both sides of the comparison).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

func errFor(g int, got, want float64) error {
	return &mismatchErr{g: g, got: got, want: want}
}

type mismatchErr struct {
	g         int
	got, want float64
}

func (e *mismatchErr) Error() string {
	return "goroutine result mismatch"
}
