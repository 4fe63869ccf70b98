package flashr

import (
	"errors"
	"testing"
)

// TestTryErrorConformance drives every Try* variant through its
// malformed-input cases and asserts the contract of the error-returning
// surface: the Try* form returns (never panics) a typed *Error, and the
// panicking shorthand panics with a value whose message is byte-identical
// to that error's text.
func TestTryErrorConformance(t *testing.T) {
	s := NewMemSession()
	s2 := NewMemSession()
	defer s.Close()
	defer s2.Close()

	small := s.SmallFromRows([][]float64{{1, 2}, {3, 4}})
	small3 := s.SmallFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	other := s2.SmallFromRows([][]float64{{1, 2}, {3, 4}})
	big, err := s.Runif(256, 2, 0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	big3, err := s.Runif(300, 3, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ragged := [][]float64{{1, 2}, {3}}

	cases := []struct {
		name string
		try  func() (*FM, error)
		call func()
	}{
		{"add/two scalars", func() (*FM, error) { return TryAdd(1.0, 2.0) }, func() { Add(1.0, 2.0) }},
		{"add/bad operand type", func() (*FM, error) { return TryAdd(small, "nope") }, func() { Add(small, "nope") }},
		{"add/cross-session", func() (*FM, error) { return TryAdd(small, other) }, func() { Add(small, other) }},
		{"add/shape mismatch", func() (*FM, error) { return TryAdd(small, small3) }, func() { Add(small, small3) }},
		{"add/trans mix", func() (*FM, error) { return TryAdd(big, big.T()) }, func() { Add(big, big.T()) }},
		{"sub/shape mismatch", func() (*FM, error) { return TrySub(small, small3) }, func() { Sub(small, small3) }},
		{"mul/shape mismatch", func() (*FM, error) { return TryMul(small, small3) }, func() { Mul(small, small3) }},
		{"div/shape mismatch", func() (*FM, error) { return TryDiv(small, small3) }, func() { Div(small, small3) }},
		{"mapply/unknown func", func() (*FM, error) { return TryMapply(small, small, "frobnicate") }, func() { Mapply(small, small, "frobnicate") }},
		{"sapply/unknown func", func() (*FM, error) { return TrySapply(small, "frobnicate") }, func() { Sapply(small, "frobnicate") }},
		{"agg/unknown func", func() (*FM, error) { return TryAgg(small, "frobnicate") }, func() { Agg(small, "frobnicate") }},
		{"agg.row/unknown func", func() (*FM, error) { return TryAggRow(small, "frobnicate") }, func() { AggRow(small, "frobnicate") }},
		{"agg.col/unknown func", func() (*FM, error) { return TryAggCol(small, "frobnicate") }, func() { AggCol(small, "frobnicate") }},
		{"row.which.min/small", func() (*FM, error) { return TryRowWhichMin(small) }, func() { RowWhichMin(small) }},
		{"row.which.max/trans", func() (*FM, error) { return TryRowWhichMax(big.T()) }, func() { RowWhichMax(big.T()) }},
		{"groupby.row/unknown func", func() (*FM, error) { return TryGroupByRow(big, big, 2, "frobnicate") }, func() { GroupByRow(big, big, 2, "frobnicate") }},
		{"groupby.row/small", func() (*FM, error) { return TryGroupByRow(small, small, 2, "+") }, func() { GroupByRow(small, small, 2, "+") }},
		{"groupby.col/small", func() (*FM, error) { return TryGroupByCol(small, []int{0, 1}, 2, "+") }, func() { GroupByCol(small, []int{0, 1}, 2, "+") }},
		{"inner.prod/unknown f1", func() (*FM, error) { return TryInnerProd(big, small, "frobnicate", "+") }, func() { InnerProd(big, small, "frobnicate", "+") }},
		{"inner.prod/small left", func() (*FM, error) { return TryInnerProd(small, small, "*", "+") }, func() { InnerProd(small, small, "*", "+") }},
		{"inner.prod/dims", func() (*FM, error) { return TryInnerProd(big, small3, "*", "+") }, func() { InnerProd(big, small3, "*", "+") }},
		{"matmul/two tall", func() (*FM, error) { return TryMatMul(big, big3) }, func() { MatMul(big, big3) }},
		{"matmul/dims", func() (*FM, error) { return TryMatMul(big, small3) }, func() { MatMul(big, small3) }},
		{"matmul/t-by-t", func() (*FM, error) { return TryMatMul(big.T(), big3.T()) }, func() { MatMul(big.T(), big3.T()) }},
		{"matmul/small by tall", func() (*FM, error) { return TryMatMul(small, big) }, func() { MatMul(small, big) }},
		{"matmul/small dims", func() (*FM, error) { return TryMatMul(small, small3) }, func() { MatMul(small, small3) }},
		{"matmul/small by t(tall) dims", func() (*FM, error) { return TryMatMul(small, big3.T()) }, func() { MatMul(small, big3.T()) }},
		{"crossprod/row mismatch", func() (*FM, error) { return TryCrossProd2(big, big3) }, func() { CrossProd2(big, big3) }},
		{"sweep/bad margin", func() (*FM, error) { return TrySweep(big, 3, small, "+") }, func() { Sweep(big, 3, small, "+") }},
		{"sweep/unknown func", func() (*FM, error) { return TrySweep(big, 2, small, "frobnicate") }, func() { Sweep(big, 2, small, "frobnicate") }},
		{"sweep/length", func() (*FM, error) { return TrySweep(big, 2, small3, "-") }, func() { Sweep(big, 2, small3, "-") }},
		{"cum.col/unknown func", func() (*FM, error) { return TryCumCol(small, "frobnicate") }, func() { CumCol(small, "frobnicate") }},
		{"cum.row/unknown func", func() (*FM, error) { return TryCumRow(small, "frobnicate") }, func() { CumRow(small, "frobnicate") }},
		{"get.cols/out of range", func() (*FM, error) { return TryGetCols(small, []int{5}) }, func() { GetCols(small, []int{5}) }},
		{"get.cols/negative", func() (*FM, error) { return TryGetCols(big, []int{-1}) }, func() { GetCols(big, []int{-1}) }},
		{"cbind/nothing", func() (*FM, error) { return TryCbind() }, func() { Cbind() }},
		{"cbind/row mismatch", func() (*FM, error) { return TryCbind(small, small3) }, func() { Cbind(small, small3) }},
		{"rbind/nothing", func() (*FM, error) { return TryRbind() }, func() { Rbind() }},
		{"rbind/col mismatch", func() (*FM, error) { return TryRbind(small, small3) }, func() { Rbind(small, small3) }},
		{"set.cols/out of range", func() (*FM, error) { return TrySetCols(small, []int{7}, small) }, func() { SetCols(small, []int{7}, small) }},
		{"set.cols/trans", func() (*FM, error) { return TrySetCols(big.T(), []int{0}, small) }, func() { SetCols(big.T(), []int{0}, small) }},
		{"small.from.rows/ragged", func() (*FM, error) { return s.TrySmallFromRows(ragged) }, func() { s.SmallFromRows(ragged) }},
		{"from.rows/ragged", func() (*FM, error) { return s.TryFromRows(ragged) }, nil},
		{"from.rows/empty", func() (*FM, error) { return s.TryFromRows(nil) }, nil},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.try()
			if err == nil {
				t.Fatalf("Try variant accepted malformed input (got %v)", out)
			}
			if out != nil {
				t.Fatalf("Try variant returned both a matrix and an error")
			}
			var te *Error
			if !errors.As(err, &te) {
				t.Fatalf("Try error is %T (%v), want *flashr.Error", err, err)
			}
			if te.Op == "" || te.Reason == "" {
				t.Fatalf("typed error missing Op or Reason: %+v", te)
			}
			if tc.call == nil {
				return
			}
			// The panicking twin must panic with the same message.
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				tc.call()
			}()
			if recovered == nil {
				t.Fatalf("panicking twin did not panic")
			}
			perr, ok := recovered.(error)
			if !ok {
				t.Fatalf("panic value is %T, want error", recovered)
			}
			if perr.Error() != err.Error() {
				t.Fatalf("panic message %q != Try error %q", perr.Error(), err.Error())
			}
			var pte *Error
			if !errors.As(perr, &pte) {
				t.Fatalf("panic value is not a *flashr.Error: %T", perr)
			}
		})
	}
}

// TestPanickingShorthandStillWorks pins the compatibility contract: valid
// inputs through the panicking shorthand behave exactly as before the Try*
// layer existed.
func TestPanickingShorthandStillWorks(t *testing.T) {
	s := NewMemSession()
	defer s.Close()
	a := s.SmallFromRows([][]float64{{1, 2}, {3, 4}})
	b := s.SmallFromRows([][]float64{{10, 20}, {30, 40}})
	sum, err := Add(a, b).AsVector()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33, 44}
	for i, v := range want {
		if sum[i] != v {
			t.Fatalf("Add result %v, want %v", sum, want)
		}
	}
	tryOut, err := TryAdd(a, b)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := tryOut.AsVector()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if tv[i] != v {
			t.Fatalf("TryAdd result %v, want %v", tv, want)
		}
	}
}
