package flashr

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/safs"
)

func TestSetCols(t *testing.T) {
	for name, s := range testSessions(t) {
		xd := dense.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
		x, _ := s.FromDense(xd)
		v, _ := s.FromRows([][]float64{{10, 30}, {40, 60}, {70, 90}})
		got, err := SetCols(x, []int{0, 2}, v).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		want := dense.FromRows([][]float64{{10, 2, 30}, {40, 5, 60}, {70, 8, 90}})
		if !dense.Equalish(got, want, 0) {
			t.Fatalf("%s: setcols %v", name, got.Data)
		}
		// Original unchanged (functional semantics, virtual construction).
		orig, err := x.AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if !dense.Equalish(orig, xd, 0) {
			t.Fatalf("%s: setcols mutated the source", name)
		}
		// Small path.
		sm := s.SmallFromRows([][]float64{{1, 2}, {3, 4}})
		got2 := SetCols(sm, []int{1}, s.SmallFromRows([][]float64{{9}, {9}}))
		if got2.mustSmall().At(0, 1) != 9 || got2.mustSmall().At(0, 0) != 1 {
			t.Fatalf("%s: small setcols", name)
		}
	}
}

func TestGroupByValue(t *testing.T) {
	for name, s := range testSessions(t) {
		v, _ := s.FromVec([]float64{2, 2, 3, 5, 3, 2})
		keys, folds, err := GroupBy(v, "+")
		if err != nil {
			t.Fatal(err)
		}
		// Groups: 2→{2,2,2} sum 6; 3→{3,3} sum 6; 5→{5} sum 5.
		if len(keys) != 3 || keys[0] != 2 || keys[1] != 3 || keys[2] != 5 {
			t.Fatalf("%s: keys %v", name, keys)
		}
		if folds[0] != 6 || folds[1] != 6 || folds[2] != 5 {
			t.Fatalf("%s: folds %v", name, folds)
		}
		// Count instance matches TableOf.
		_, counts, err := TableOf(v)
		if err != nil {
			t.Fatal(err)
		}
		_, cFolds, err := GroupBy(v, "count")
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if float64(counts[i]) != cFolds[i] {
				t.Fatalf("%s: groupby count %v vs table %v", name, cFolds, counts)
			}
		}
	}
}

func TestGetRows(t *testing.T) {
	for name, s := range testSessions(t) {
		// Rows spanning several 256-row partitions.
		x, err := s.GenerateMat(1000, 3, func(i int64, j int) float64 { return float64(i)*10 + float64(j) })
		if err != nil {
			t.Fatal(err)
		}
		got, err := GetRows(x, []int64{999, 0, 300, 511, 512})
		if err != nil {
			t.Fatal(err)
		}
		wantFirst := []float64{9990, 9991, 9992}
		for j, w := range wantFirst {
			if got.At(0, j) != w {
				t.Fatalf("%s: row 999 = %v", name, got.Row(0))
			}
		}
		if got.At(1, 0) != 0 || got.At(2, 0) != 3000 || got.At(3, 0) != 5110 || got.At(4, 0) != 5120 {
			t.Fatalf("%s: gathered rows wrong: %v", name, got.Data)
		}
		if _, err := GetRows(x, []int64{1000}); err == nil {
			t.Fatalf("%s: out-of-range row accepted", name)
		}
	}
}

// TestGetRowsReadsRequestedSpan: on the array, GetRows reads only the rows
// from the first to the last requested one of each partition it touches,
// not whole partitions.
func TestGetRowsReadsRequestedSpan(t *testing.T) {
	s := testSessions(t)["em"]
	x, err := s.GenerateMat(1000, 3, func(i int64, j int) float64 { return float64(i)*10 + float64(j) })
	if err != nil {
		t.Fatal(err)
	}
	if err := x.MaterializeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := s.FS().Stats().BytesRead
	// Partition 1 (rows 256…511) spans rows 300…302; partition 3 row 999.
	got, err := GetRows(x, []int64{302, 999, 300})
	if err != nil {
		t.Fatal(err)
	}
	if read, want := s.FS().Stats().BytesRead-before, int64((3+1)*3*8); read != want {
		t.Fatalf("GetRows read %d bytes from the array, want %d", read, want)
	}
	if got.At(0, 0) != 3020 || got.At(1, 2) != 9992 || got.At(2, 1) != 3001 {
		t.Fatalf("gathered rows wrong: %v", got.Data)
	}
}

func TestExplain(t *testing.T) {
	s := NewMemSession()
	x, _ := s.Rnorm(2000, 4, 0, 1, 1)
	expr := Sqrt(Abs(Sub(Mul(x, 2.0), 1.0)))
	plan := Explain(expr)
	for _, want := range []string{"sapply", "f=sqrt", "mapply.scalar", "leaf 2000x4", "[virtual]"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("explain missing %q:\n%s", want, plan)
		}
	}
	// Sink explain.
	sum := Sum(expr)
	splan := Explain(sum)
	if !strings.Contains(splan, "agg") || !strings.Contains(splan, "sink") {
		t.Fatalf("sink explain:\n%s", splan)
	}
	// Forcing flips the state.
	if _, err := sum.Float(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(sum), "materialized") {
		t.Fatal("explain does not show materialization")
	}
}

// TestSetColsFused: SetCols composes with downstream GenOps in one pass.
func TestSetColsFused(t *testing.T) {
	s := NewMemSession()
	x, _ := s.Rnorm(3000, 4, 0, 1, 2)
	zeros := s.Zeros(3000, 1)
	masked := SetCols(x, []int{2}, zeros)
	cs, err := ColSums(masked).AsVector()
	if err != nil {
		t.Fatal(err)
	}
	if cs[2] != 0 {
		t.Fatalf("masked column sum %g", cs[2])
	}
	if math.Abs(cs[0]) < 1e-12 && math.Abs(cs[1]) < 1e-12 {
		t.Fatal("other columns unexpectedly zero")
	}
}

// TestHeadElementReadOnePartition: Head and Element on a tall EM matrix read
// the partition holding the rows they return, not the whole matrix.
func TestHeadElementReadOnePartition(t *testing.T) {
	s, err := NewSession(Options{Workers: 2, PartRows: 1024, EM: true, SSDDirs: safs.DriveDirs(t.TempDir(), 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, err := s.GenerateMat(65536, 8, func(i int64, j int) float64 { return float64(i*8) + float64(j) })
	if err != nil {
		t.Fatal(err)
	}
	const onePart = 1024 * 8 * 8
	read := func(f func() error) int64 {
		t.Helper()
		before := s.FS().Stats().BytesRead
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return s.FS().Stats().BytesRead - before
	}
	if n := read(func() error {
		h, err := Head(x, 4)
		if err == nil && (h.R != 4 || h.At(3, 7) != 31) {
			t.Errorf("Head(x, 4) = %dx%d, [3,7] = %g", h.R, h.C, h.At(3, 7))
		}
		return err
	}); n > onePart {
		t.Errorf("Head(x, 4) read %d bytes, want <= %d", n, onePart)
	}
	if n := read(func() error {
		v, err := x.Element(0, 1)
		if err == nil && v != 1 {
			t.Errorf("x.Element(0, 1) = %g, want 1", v)
		}
		return err
	}); n > onePart {
		t.Errorf("x.Element(0, 1) read %d bytes, want <= %d", n, onePart)
	}
	if v, err := x.T().Element(2, 5000); err != nil || v != 5000*8+2 {
		t.Errorf("t(x)[2, 5000] = %g, %v; want %d", v, err, 5000*8+2)
	}
}

// TestShapeErrorsBeforeForcing: a shape mismatch against a pending sink
// operand is reported without running the pass that would force the sink.
func TestShapeErrorsBeforeForcing(t *testing.T) {
	s := NewMemSession()
	defer s.Close()
	x, err := s.Runif(200, 5, 0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		try  func() (*FM, error)
	}{
		{"%*%", func() (*FM, error) { return TryMatMul(x, ColSums(x)) }},
		{"inner.prod", func() (*FM, error) { return TryInnerProd(x, ColSums(x), "*", "+") }},
		{"sweep", func() (*FM, error) { return TrySweep(x, 2, ColSums(Cbind(x, x)), "-") }},
	} {
		_, err := tc.try()
		var fe *Error
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want a *flashr.Error", tc.name, err)
		}
		if p := s.TotalMaterializeStats().Passes; p != 0 {
			t.Fatalf("%s: shape error after %d passes, want 0", tc.name, p)
		}
	}
}

// TestMatMulZeroTail: X %*% U with U upper triangular runs the zero-tail
// Gemm. Rows of X holding ±Inf or NaN, in columns that meet U's zeros, and
// every finite row keep the bits of the in-order loop from 0, at the
// default Pcache budget and at 4 KiB (chunks of a few rows, odd ones
// included).
func TestMatMulZeroTail(t *testing.T) {
	inf := math.Inf(1)
	for _, pcache := range []int{0, 4096} {
		for _, p := range []int{11, 32} {
			const n = 701
			s, err := NewSession(Options{Workers: 2, PartRows: 256, PcacheBytes: pcache})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(p)))
			xd, u := dense.New(n, p), dense.New(p, p)
			for i := range xd.Data {
				xd.Data[i] = rng.NormFloat64()
			}
			for i := 0; i < p; i++ {
				for j := i; j < p; j++ {
					u.Set(i, j, rng.NormFloat64())
				}
			}
			xd.Set(5, p-1, inf)
			xd.Set(300, 3, math.NaN())
			xd.Set(301, 0, -inf)
			xd.Set(n-1, p-2, inf)
			x, err := s.FromDense(xd)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MatMul(x, s.Small(u)).AsDense()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < p; j++ {
					var want float64
					for q := 0; q < p; q++ {
						want += xd.At(i, q) * u.At(q, j)
					}
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("pcache=%d p=%d: [%d,%d] = %v, want %v", pcache, p, i, j, got.At(i, j), want)
					}
				}
			}
			s.Close()
		}
	}
}
