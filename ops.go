package flashr

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/matrix"
)

// Every operation in this file comes in two spellings: TryXxx returns
// (*FM, error) and reports malformed input as a *Error; Xxx is the R-style
// panicking shorthand, implemented as must(TryXxx(...)), whose panic value
// is that same *Error. Use the Try* forms in long-running services, the
// short forms in scripts and algorithms (as the paper's R code would).

// operand normalizes an argument that may be an *FM or a Go number.
type operand struct {
	fm     *FM
	scalar float64
	isNum  bool
}

func tryAsOperand(op string, v any) (operand, error) {
	switch t := v.(type) {
	case *FM:
		return operand{fm: t}, nil
	case float64:
		return operand{scalar: t, isNum: true}, nil
	case int:
		return operand{scalar: float64(t), isNum: true}, nil
	case int64:
		return operand{scalar: float64(t), isNum: true}, nil
	default:
		return operand{}, errf(op, nil, "operand type %T (want *FM, float64 or int)", v)
	}
}

// tryBinOp implements every elementwise binary R function of Table 2: it
// dispatches on operand classes (big/small/scalar) and stays lazy whenever a
// big matrix is involved.
func tryBinOp(op string, x, y any, f *core.Binary) (*FM, error) {
	a, err := tryAsOperand(op, x)
	if err != nil {
		return nil, err
	}
	b, err := tryAsOperand(op, y)
	if err != nil {
		return nil, err
	}
	switch {
	case a.isNum && b.isNum:
		return nil, errf(op, nil, "binary op needs at least one matrix")
	case a.isNum:
		return tryScalarOp(b.fm, a.scalar, f, true)
	case b.isNum:
		return tryScalarOp(a.fm, b.scalar, f, false)
	}
	xa, yb := a.fm, b.fm
	if xa.s != yb.s {
		return nil, errf(op, nil, "operands belong to different sessions")
	}
	s := xa.s
	// 1×1 operands degrade to scalars.
	if r, c := yb.dims(); r == 1 && c == 1 && !yb.isBig() {
		d, err := yb.resolveSmall()
		if err != nil {
			return nil, err
		}
		return tryScalarOp(xa, d.Data[0], f, false)
	}
	if r, c := xa.dims(); r == 1 && c == 1 && !xa.isBig() {
		d, err := xa.resolveSmall()
		if err != nil {
			return nil, err
		}
		return tryScalarOp(yb, d.Data[0], f, true)
	}
	ar, ac := xa.dims()
	br, bc := yb.dims()
	if ar != br || ac != bc {
		return nil, errf(op, shapesOf(xa, yb), "elementwise shape mismatch")
	}
	switch {
	case !xa.isBig() && !yb.isBig():
		da, err := xa.resolveSmall()
		if err != nil {
			return nil, err
		}
		db, err := yb.resolveSmall()
		if err != nil {
			return nil, err
		}
		out := dense.New(da.R, da.C)
		for i := range out.Data {
			out.Data[i] = f.F(da.Data[i], db.Data[i])
		}
		return s.smallFM(out), nil
	case xa.isBig() && yb.isBig():
		if xa.trans != yb.trans {
			return nil, errf(op, shapesOf(xa, yb), "elementwise op mixing a transposed and a non-transposed large matrix")
		}
		out := s.bigFM(core.Mapply(xa.big, yb.big, f))
		out.trans = xa.trans
		return out, nil
	default:
		// One big, one small with the same logical shape: promote the
		// small one into the engine.
		big, small := xa, yb
		swapped := false
		if !big.isBig() {
			big, small = yb, xa
			swapped = true
		}
		if big.trans {
			return nil, errf(op, shapesOf(xa, yb), "elementwise op between transposed large matrix and small matrix")
		}
		pm, err := small.promote()
		if err != nil {
			return nil, err
		}
		if swapped {
			return s.bigFM(core.Mapply(pm, big.big, f)), nil
		}
		return s.bigFM(core.Mapply(big.big, pm, f)), nil
	}
}

func tryScalarOp(x *FM, sc float64, f *core.Binary, scalarLeft bool) (*FM, error) {
	if x.isBig() {
		out := x.s.bigFM(core.MapplyScalar(x.big, sc, f, scalarLeft))
		out.trans = x.trans
		return out, nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	out := dense.New(d.R, d.C)
	for i, v := range d.Data {
		if scalarLeft {
			out.Data[i] = f.F(sc, v)
		} else {
			out.Data[i] = f.F(v, sc)
		}
	}
	return x.s.smallFM(out), nil
}

// TryAdd is R's "+" (elementwise; either argument may be a scalar).
func TryAdd(x, y any) (*FM, error) { return tryBinOp("add", x, y, core.BinAdd) }

// Add is TryAdd's panicking shorthand.
func Add(x, y any) *FM { return must(TryAdd(x, y)) }

// TrySub is R's "-".
func TrySub(x, y any) (*FM, error) { return tryBinOp("sub", x, y, core.BinSub) }

// Sub is TrySub's panicking shorthand.
func Sub(x, y any) *FM { return must(TrySub(x, y)) }

// TryMul is R's "*" (Hadamard product).
func TryMul(x, y any) (*FM, error) { return tryBinOp("mul", x, y, core.BinMul) }

// Mul is TryMul's panicking shorthand.
func Mul(x, y any) *FM { return must(TryMul(x, y)) }

// TryDiv is R's "/".
func TryDiv(x, y any) (*FM, error) { return tryBinOp("div", x, y, core.BinDiv) }

// Div is TryDiv's panicking shorthand.
func Div(x, y any) *FM { return must(TryDiv(x, y)) }

// TryPow is R's "^".
func TryPow(x, y any) (*FM, error) { return tryBinOp("pow", x, y, core.BinPow) }

// Pow is TryPow's panicking shorthand.
func Pow(x, y any) *FM { return must(TryPow(x, y)) }

// TryMod is R's "%%".
func TryMod(x, y any) (*FM, error) { return tryBinOp("mod", x, y, core.BinMod) }

// Mod is TryMod's panicking shorthand.
func Mod(x, y any) *FM { return must(TryMod(x, y)) }

// TryPmin is R's pmin.
func TryPmin(x, y any) (*FM, error) { return tryBinOp("pmin", x, y, core.BinPmin) }

// Pmin is TryPmin's panicking shorthand.
func Pmin(x, y any) *FM { return must(TryPmin(x, y)) }

// TryPmax is R's pmax.
func TryPmax(x, y any) (*FM, error) { return tryBinOp("pmax", x, y, core.BinPmax) }

// Pmax is TryPmax's panicking shorthand.
func Pmax(x, y any) *FM { return must(TryPmax(x, y)) }

// TryEq is R's "==" (1/0 valued result).
func TryEq(x, y any) (*FM, error) { return tryBinOp("eq", x, y, core.BinEq) }

// Eq is TryEq's panicking shorthand.
func Eq(x, y any) *FM { return must(TryEq(x, y)) }

// TryNe is R's "!=".
func TryNe(x, y any) (*FM, error) { return tryBinOp("ne", x, y, core.BinNe) }

// Ne is TryNe's panicking shorthand.
func Ne(x, y any) *FM { return must(TryNe(x, y)) }

// TryLt is R's "<".
func TryLt(x, y any) (*FM, error) { return tryBinOp("lt", x, y, core.BinLt) }

// Lt is TryLt's panicking shorthand.
func Lt(x, y any) *FM { return must(TryLt(x, y)) }

// TryLe is R's "<=".
func TryLe(x, y any) (*FM, error) { return tryBinOp("le", x, y, core.BinLe) }

// Le is TryLe's panicking shorthand.
func Le(x, y any) *FM { return must(TryLe(x, y)) }

// TryGt is R's ">".
func TryGt(x, y any) (*FM, error) { return tryBinOp("gt", x, y, core.BinGt) }

// Gt is TryGt's panicking shorthand.
func Gt(x, y any) *FM { return must(TryGt(x, y)) }

// TryGe is R's ">=".
func TryGe(x, y any) (*FM, error) { return tryBinOp("ge", x, y, core.BinGe) }

// Ge is TryGe's panicking shorthand.
func Ge(x, y any) *FM { return must(TryGe(x, y)) }

// TryAnd is R's "&".
func TryAnd(x, y any) (*FM, error) { return tryBinOp("and", x, y, core.BinAnd) }

// And is TryAnd's panicking shorthand.
func And(x, y any) *FM { return must(TryAnd(x, y)) }

// TryOr is R's "|".
func TryOr(x, y any) (*FM, error) { return tryBinOp("or", x, y, core.BinOr) }

// Or is TryOr's panicking shorthand.
func Or(x, y any) *FM { return must(TryOr(x, y)) }

// TryMapply is the binary GenOp with a named predefined function (Table 1).
func TryMapply(x, y any, fname string) (*FM, error) {
	f, err := core.LookupBinary(fname)
	if err != nil {
		return nil, errf("mapply", nil, "unknown binary function %q", fname)
	}
	return tryBinOp("mapply", x, y, f)
}

// Mapply is TryMapply's panicking shorthand.
func Mapply(x, y any, fname string) *FM { return must(TryMapply(x, y, fname)) }

func tryUnOp(x *FM, f *core.Unary) (*FM, error) {
	if x.isBig() {
		out := x.s.bigFM(core.Sapply(x.big, f))
		out.trans = x.trans
		return out, nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	return x.s.smallFM(d.Apply(f.F)), nil
}

func unOp(x *FM, f *core.Unary) *FM { return must(tryUnOp(x, f)) }

// TrySapply is the unary GenOp with a named predefined function.
func TrySapply(x *FM, fname string) (*FM, error) {
	f, err := core.LookupUnary(fname)
	if err != nil {
		return nil, errf("sapply", nil, "unknown unary function %q", fname)
	}
	return tryUnOp(x, f)
}

// Sapply is TrySapply's panicking shorthand.
func Sapply(x *FM, fname string) *FM { return must(TrySapply(x, fname)) }

// Neg is unary "-".
func Neg(x *FM) *FM { return unOp(x, core.UnaryNeg) }

// Not is R's "!".
func Not(x *FM) *FM { return unOp(x, core.UnaryNot) }

// Sqrt is R's sqrt.
func Sqrt(x *FM) *FM { return unOp(x, core.UnarySqrt) }

// Exp is R's exp.
func Exp(x *FM) *FM { return unOp(x, core.UnaryExp) }

// Log is R's log.
func Log(x *FM) *FM { return unOp(x, core.UnaryLog) }

// Log1p is R's log1p.
func Log1p(x *FM) *FM { return unOp(x, core.UnaryLog1p) }

// Abs is R's abs.
func Abs(x *FM) *FM { return unOp(x, core.UnaryAbs) }

// Floor is R's floor.
func Floor(x *FM) *FM { return unOp(x, core.UnaryFloor) }

// Ceiling is R's ceiling.
func Ceiling(x *FM) *FM { return unOp(x, core.UnaryCeil) }

// Round is R's round.
func Round(x *FM) *FM { return unOp(x, core.UnaryRound) }

// Sign is R's sign.
func Sign(x *FM) *FM { return unOp(x, core.UnarySign) }

// Sigmoid computes 1/(1+exp(-x)) in one fused kernel.
func Sigmoid(x *FM) *FM { return unOp(x, core.UnarySigmoid) }

// Square computes x*x.
func Square(x *FM) *FM { return unOp(x, core.UnarySquare) }

// tryAggF builds the full-matrix aggregation, lazily for big matrices.
func tryAggF(x *FM, f *core.AggFunc) (*FM, error) {
	if x.isBig() {
		return x.s.sinkFM(core.Agg(x.big, f)), nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	acc := f.Init
	acc = f.StepV(acc, d.Data)
	return x.s.smallFM(dense.FromSlice(1, 1, []float64{acc})), nil
}

func aggF(x *FM, f *core.AggFunc) *FM { return must(tryAggF(x, f)) }

// TryAgg is agg(A, f) from Table 1: a scalar fold with a named function.
func TryAgg(x *FM, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("agg", nil, "unknown aggregation function %q", fname)
	}
	return tryAggF(x, f)
}

// Agg is TryAgg's panicking shorthand.
func Agg(x *FM, fname string) *FM { return must(TryAgg(x, fname)) }

// Sum is R's sum; the result is a lazy 1×1 matrix (force with Float or
// AsVector, as the paper's examples do).
func Sum(x *FM) *FM { return aggF(x, core.AggSum) }

// Prod is R's prod.
func Prod(x *FM) *FM { return aggF(x, core.AggProd) }

// Min is R's min over all elements.
func Min(x *FM) *FM { return aggF(x, core.AggMin) }

// Max is R's max over all elements.
func Max(x *FM) *FM { return aggF(x, core.AggMax) }

// Any is R's any (on a 0/1 matrix).
func Any(x *FM) *FM { return aggF(x, core.AggAny) }

// All is R's all.
func All(x *FM) *FM { return aggF(x, core.AggAll) }

// Mean is R's mean over all elements.
func Mean(x *FM) *FM { return Div(Sum(x), float64(x.Length())) }

// RowSums aggregates every row; on a tall matrix this keeps the partition
// dimension (an n×1 tall matrix).
func RowSums(x *FM) *FM { return must(tryAggRowF(x, core.AggSum)) }

// RowMeans is R's rowMeans.
func RowMeans(x *FM) *FM {
	_, c := x.dims()
	return Div(RowSums(x), float64(c))
}

// ColSums aggregates every column; on a tall matrix the result is a sink
// (1×p, held in memory).
func ColSums(x *FM) *FM { return must(tryAggColF(x, core.AggSum)) }

// ColMeans is R's colMeans.
func ColMeans(x *FM) *FM {
	r, _ := x.dims()
	return Div(ColSums(x), float64(r))
}

// TryAggRow is agg.row(A, f) with a named function.
func TryAggRow(x *FM, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("agg.row", nil, "unknown aggregation function %q", fname)
	}
	return tryAggRowF(x, f)
}

// AggRow is TryAggRow's panicking shorthand.
func AggRow(x *FM, fname string) *FM { return must(TryAggRow(x, fname)) }

// TryAggCol is agg.col(A, f) with a named function.
func TryAggCol(x *FM, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("agg.col", nil, "unknown aggregation function %q", fname)
	}
	return tryAggColF(x, f)
}

// AggCol is TryAggCol's panicking shorthand.
func AggCol(x *FM, fname string) *FM { return must(TryAggCol(x, fname)) }

func tryAggRowF(x *FM, f *core.AggFunc) (*FM, error) {
	if x.isBig() {
		if x.trans {
			// Rows of the transpose are columns of the original.
			return x.s.sinkFM(core.AggCol(x.big, f)).T(), nil
		}
		return x.s.bigFM(core.AggRow(x.big, f)), nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	out := dense.New(d.R, 1)
	for i := 0; i < d.R; i++ {
		out.Data[i] = f.StepV(f.Init, d.Row(i))
	}
	return x.s.smallFM(out), nil
}

func tryAggColF(x *FM, f *core.AggFunc) (*FM, error) {
	if x.isBig() {
		if x.trans {
			return x.s.bigFM(core.AggRow(x.big, f)).T(), nil
		}
		return x.s.sinkFM(core.AggCol(x.big, f)), nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	out := dense.New(1, d.C)
	for j := 0; j < d.C; j++ {
		acc := f.Init
		for i := 0; i < d.R; i++ {
			acc = f.Step(acc, d.At(i, j))
		}
		out.Data[j] = acc
	}
	return x.s.smallFM(out), nil
}

// TryRowWhichMin returns the 0-based index of each row's minimum (R's
// which.min per row, shifted to 0-based so the result feeds GroupByRow
// directly). NaNs are skipped, as in R; a row of only NaNs gives NaN, which
// GroupByRow rejects as a label.
func TryRowWhichMin(x *FM) (*FM, error) {
	if !x.isBig() || x.trans {
		return nil, errf("row.which.min", shapesOf(x), "needs a non-transposed large matrix")
	}
	return x.s.bigFM(core.WhichMinRow(x.big)), nil
}

// RowWhichMin is TryRowWhichMin's panicking shorthand.
func RowWhichMin(x *FM) *FM { return must(TryRowWhichMin(x)) }

// TryRowWhichMax returns the 0-based index of each row's maximum, with
// TryRowWhichMin's NaN rule.
func TryRowWhichMax(x *FM) (*FM, error) {
	if !x.isBig() || x.trans {
		return nil, errf("row.which.max", shapesOf(x), "needs a non-transposed large matrix")
	}
	return x.s.bigFM(core.WhichMaxRow(x.big)), nil
}

// RowWhichMax is TryRowWhichMax's panicking shorthand.
func RowWhichMax(x *FM) *FM { return must(TryRowWhichMax(x)) }

// TryGroupByRow is groupby.row(A, B, f): rows of x grouped by the n×1 label
// matrix (0-based labels in [0,k)) and aggregated per column into a k×p sink.
func TryGroupByRow(x, labels *FM, k int, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("groupby.row", nil, "unknown aggregation function %q", fname)
	}
	if !x.isBig() || x.trans {
		return nil, errf("groupby.row", shapesOf(x), "needs a non-transposed large matrix")
	}
	lb, err := labels.promote()
	if err != nil {
		return nil, err
	}
	return x.s.sinkFM(core.GroupByRow(x.big, lb, k, f)), nil
}

// GroupByRow is TryGroupByRow's panicking shorthand.
func GroupByRow(x, labels *FM, k int, fname string) *FM {
	return must(TryGroupByRow(x, labels, k, fname))
}

// TryGroupByCol is groupby.col(A, B, f): columns grouped by labels[j] ∈
// [0,k), aggregated within each row; the n×k result keeps the partition
// dimension.
func TryGroupByCol(x *FM, labels []int, k int, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("groupby.col", nil, "unknown aggregation function %q", fname)
	}
	if !x.isBig() || x.trans {
		return nil, errf("groupby.col", shapesOf(x), "needs a non-transposed large matrix")
	}
	return x.s.bigFM(core.GroupByCol(x.big, labels, k, f)), nil
}

// GroupByCol is TryGroupByCol's panicking shorthand.
func GroupByCol(x *FM, labels []int, k int, fname string) *FM {
	return must(TryGroupByCol(x, labels, k, fname))
}

// TryInnerProd is the generalized matrix multiplication GenOp: x (tall n×p)
// against a small matrix y (p×m), with named f1/f2 (e.g. "euclidean", "+"
// computes squared distances as in the paper's k-means).
func TryInnerProd(x, y *FM, f1name, f2name string) (*FM, error) {
	f1, err := core.LookupBinary(f1name)
	if err != nil {
		return nil, errf("inner.prod", nil, "unknown binary function %q", f1name)
	}
	f2, err := core.LookupBinary(f2name)
	if err != nil {
		return nil, errf("inner.prod", nil, "unknown binary function %q", f2name)
	}
	if !x.isBig() || x.trans {
		return nil, errf("inner.prod", shapesOf(x, y), "needs a non-transposed large left operand")
	}
	if y.NRow() != x.NCol() {
		return nil, errf("inner.prod", shapesOf(x, y), "dimension mismatch")
	}
	d, err := y.resolveSmall()
	if err != nil {
		return nil, err
	}
	return x.s.bigFM(core.InnerProd(x.big, d, f1, f2)), nil
}

// InnerProd is TryInnerProd's panicking shorthand.
func InnerProd(x, y *FM, f1name, f2name string) *FM {
	return must(TryInnerProd(x, y, f1name, f2name))
}

// TryMatMul is R's %*%. Supported operand shapes mirror how the paper's
// algorithms use multiplication on tall data:
//
//   - big %*% small           → streaming inner product (n×m tall result)
//   - t(big) %*% big          → crossprod sink (p×m small result)
//   - t(big) %*% small        → not meaningful on shapes; rejected
//   - small %*% small         → eager BLAS
//   - small %*% t(big)        → transposed inner product (view)
//
// Float matrices use the BLAS kernel; integer matrices use the generalized
// inner-product GenOp, per Table 2. Shapes are checked before any pending
// sink operand is forced.
func TryMatMul(x, y *FM) (*FM, error) {
	const op = "%*%"
	s := x.s
	switch {
	case x.isBig() && !x.trans:
		// Right operand must be small (p×m).
		if y.isBig() {
			return nil, errf(op, shapesOf(x, y), "of two tall matrices is t(A)%%*%%B-shaped only")
		}
		if y.NRow() != x.NCol() {
			return nil, errf(op, shapesOf(x, y), "dimension mismatch")
		}
		d, err := y.resolveSmall()
		if err != nil {
			return nil, err
		}
		return s.bigFM(core.InnerProd(x.big, d, mmF1(x), mmF2(x))), nil
	case x.isBig() && x.trans:
		// t(A) %*% B with B tall: crossprod sink.
		if y.isBig() && !y.trans {
			if x.big.NRow() != y.big.NRow() {
				return nil, errf(op, shapesOf(x, y), "crossprod row mismatch")
			}
			return s.sinkFM(core.CrossProd(x.big, y.big, mmF1(x), mmF2(x))), nil
		}
		if !y.isBig() {
			if y.NRow() != x.big.NRow() {
				return nil, errf(op, shapesOf(x, y), "dimension mismatch")
			}
			// t(A) %*% small: promote the small right operand.
			pm, err := y.promote()
			if err != nil {
				return nil, err
			}
			return s.sinkFM(core.CrossProd(x.big, pm, mmF1(x), mmF2(x))), nil
		}
		return nil, errf(op, shapesOf(x, y), "t(A) %%*%% t(B) on two tall matrices not supported")
	default:
		// Small left operand.
		if y.isBig() && !y.trans {
			return nil, errf(op, shapesOf(x, y), "small %%*%% tall is shape-invalid")
		}
		if x.NCol() != y.NRow() {
			return nil, errf(op, shapesOf(x, y), "dimension mismatch")
		}
		da, err := x.resolveSmall()
		if err != nil {
			return nil, err
		}
		if y.isBig() {
			// small(m×p) %*% t(big n×p) = t( big %*% t(small) ): stream.
			ip := core.InnerProd(y.big, da.T(), mmF1(y), mmF2(y))
			return s.bigFM(ip).T(), nil
		}
		db, err := y.resolveSmall()
		if err != nil {
			return nil, err
		}
		if err := s.planCharge(int64(da.R)*int64(da.C), int64(db.C)); err != nil {
			return nil, err
		}
		return s.smallFM(dense.MatMul(da, db)), nil
	}
}

// MatMul is TryMatMul's panicking shorthand.
func MatMul(x, y *FM) *FM { return must(TryMatMul(x, y)) }

// mmF1/mmF2 select the multiply kernel per Table 2: BLAS (nil) for floats,
// the generalized GenOp for integer matrices.
func mmF1(x *FM) *core.Binary {
	if x.big != nil && x.big.DType() != 0 { // non-F64
		return core.BinMul
	}
	return nil
}

func mmF2(x *FM) *core.Binary {
	if x.big != nil && x.big.DType() != 0 {
		return core.BinAdd
	}
	return nil
}

// TryCrossProd computes t(x) %*% x (R's crossprod), a p×p sink on tall input.
func TryCrossProd(x *FM) (*FM, error) { return TryCrossProd2(x, x) }

// CrossProd is TryCrossProd's panicking shorthand.
func CrossProd(x *FM) *FM { return must(TryCrossProd(x)) }

// TryCrossProd2 computes t(x) %*% y.
func TryCrossProd2(x, y *FM) (*FM, error) {
	if x.isBig() && y.isBig() && !x.trans && !y.trans {
		if x.big.NRow() != y.big.NRow() {
			return nil, errf("crossprod", shapesOf(x, y), "row mismatch")
		}
		return x.s.sinkFM(core.CrossProd(x.big, y.big, mmF1(x), mmF2(x))), nil
	}
	return TryMatMul(x.T(), y)
}

// CrossProd2 is TryCrossProd2's panicking shorthand.
func CrossProd2(x, y *FM) *FM { return must(TryCrossProd2(x, y)) }

// TrySweep is R's sweep(x, margin, v, f): margin 2 sweeps a length-p vector
// along every row; margin 1 sweeps a length-n vector (an n×1 matrix,
// possibly tall) down every column.
func TrySweep(x *FM, margin int, v *FM, fname string) (*FM, error) {
	f, err := core.LookupBinary(fname)
	if err != nil {
		return nil, errf("sweep", nil, "unknown binary function %q", fname)
	}
	if margin != 1 && margin != 2 {
		return nil, errf("sweep", shapesOf(x, v), "margin must be 1 or 2, got %d", margin)
	}
	if margin == 2 && v.Length() != x.NCol() || margin == 1 && v.Length() != x.NRow() {
		return nil, errf("sweep", shapesOf(x, v), "vector length does not match margin %d", margin)
	}
	if !x.isBig() {
		d, err := x.resolveSmall()
		if err != nil {
			return nil, err
		}
		vd, err := v.resolveSmall()
		if err != nil {
			return nil, err
		}
		if margin == 2 {
			return x.s.smallFM(d.SweepRows(vd.Data, f.F)), nil
		}
		return x.s.smallFM(d.SweepCols(vd.Data, f.F)), nil
	}
	if x.trans {
		return nil, errf("sweep", shapesOf(x, v), "sweep on transposed large matrix")
	}
	if margin == 2 {
		vd, err := v.resolveSmall()
		if err != nil {
			return nil, err
		}
		return x.s.bigFM(core.MapplyRowVec(x.big, vd.Data, f, false)), nil
	}
	vb, err := v.promote()
	if err != nil {
		return nil, err
	}
	return x.s.bigFM(core.MapplyColVec(x.big, vb, f, false)), nil
}

// Sweep is TrySweep's panicking shorthand.
func Sweep(x *FM, margin int, v *FM, fname string) *FM {
	return must(TrySweep(x, margin, v, fname))
}

// TryCumCol is the cumulative GenOp down each column (R's cumsum semantics
// per column on a matrix) with a named function.
func TryCumCol(x *FM, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("cum.col", nil, "unknown aggregation function %q", fname)
	}
	if x.isBig() {
		if x.trans {
			return x.s.bigFM(core.CumRow(x.big, f)).T(), nil
		}
		return x.s.bigFM(core.CumCol(x.big, f)), nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	out := dense.New(d.R, d.C)
	run := make([]float64, d.C)
	for j := range run {
		run[j] = f.Init
	}
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			run[j] = f.Step(run[j], d.At(i, j))
			out.Set(i, j, run[j])
		}
	}
	return x.s.smallFM(out), nil
}

// CumCol is TryCumCol's panicking shorthand.
func CumCol(x *FM, fname string) *FM { return must(TryCumCol(x, fname)) }

// TryCumRow is the cumulative GenOp along each row.
func TryCumRow(x *FM, fname string) (*FM, error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, errf("cum.row", nil, "unknown aggregation function %q", fname)
	}
	if x.isBig() {
		if x.trans {
			return x.s.bigFM(core.CumCol(x.big, f)).T(), nil
		}
		return x.s.bigFM(core.CumRow(x.big, f)), nil
	}
	out, err := TryCumCol(x.T(), fname)
	if err != nil {
		return nil, err
	}
	return out.T(), nil
}

// CumRow is TryCumRow's panicking shorthand.
func CumRow(x *FM, fname string) *FM { return must(TryCumRow(x, fname)) }

// Cumsum on a one-column matrix (R's cumsum on a vector).
func Cumsum(x *FM) *FM { return CumCol(x, "+") }

// TryGetCols selects columns (R's x[, idx]); on tall matrices this is a
// virtual view: a pass reads each flat partition of x whole and gathers the
// selected columns in the chunk.
func TryGetCols(x *FM, cols []int) (*FM, error) {
	_, nc := x.dims()
	for _, c := range cols {
		if c < 0 || int64(c) >= nc {
			return nil, errf("get.cols", shapesOf(x), "column %d out of range [0,%d)", c, nc)
		}
	}
	if x.isBig() {
		if x.trans {
			return nil, errf("get.cols", shapesOf(x), "on transposed large matrix (select rows instead)")
		}
		return x.s.bigFM(core.Cols(x.big, cols)), nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	out := dense.New(d.R, len(cols))
	for i := 0; i < d.R; i++ {
		for j, c := range cols {
			out.Set(i, j, d.At(i, c))
		}
	}
	return x.s.smallFM(out), nil
}

// GetCols is TryGetCols's panicking shorthand.
func GetCols(x *FM, cols []int) *FM { return must(TryGetCols(x, cols)) }

// GetCol selects a single column as an n×1 matrix.
func GetCol(x *FM, j int) *FM { return GetCols(x, []int{j}) }

// TryCbind concatenates matrices column-wise (R's cbind).
func TryCbind(xs ...*FM) (*FM, error) {
	if len(xs) == 0 {
		return nil, errf("cbind", nil, "cbind of nothing")
	}
	out := xs[0]
	for _, x := range xs[1:] {
		var err error
		out, err = tryCbind2(out, x)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Cbind is TryCbind's panicking shorthand.
func Cbind(xs ...*FM) *FM { return must(TryCbind(xs...)) }

func tryCbind2(x, y *FM) (*FM, error) {
	if x.NRow() != y.NRow() {
		return nil, errf("cbind", shapesOf(x, y), "row mismatch")
	}
	if x.isBig() || y.isBig() {
		xb, err := x.promote()
		if err != nil {
			return nil, err
		}
		yb, err := y.promote()
		if err != nil {
			return nil, err
		}
		return x.s.bigFM(core.Cbind2(xb, yb)), nil
	}
	dx, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	dy, err := y.resolveSmall()
	if err != nil {
		return nil, err
	}
	out := dense.New(dx.R, dx.C+dy.C)
	for i := 0; i < dx.R; i++ {
		copy(out.Row(i)[:dx.C], dx.Row(i))
		copy(out.Row(i)[dx.C:], dy.Row(i))
	}
	return x.s.smallFM(out), nil
}

// TryRbind concatenates matrices row-wise (R's rbind). Tall operands are
// materialized and copied into a fresh store (the paper treats large matrix
// modification as out of scope, citing TileDB-style fragments as future
// work; a copy preserves semantics).
func TryRbind(xs ...*FM) (*FM, error) {
	if len(xs) == 0 {
		return nil, errf("rbind", nil, "rbind of nothing")
	}
	s := xs[0].s
	anyBig := false
	var totalRows int64
	cols := xs[0].NCol()
	for _, x := range xs {
		if x.NCol() != cols {
			return nil, errf("rbind", shapesOf(xs...), "column mismatch")
		}
		totalRows += x.NRow()
		anyBig = anyBig || x.isBig()
	}
	if !anyBig {
		rows := make([][]float64, 0, totalRows)
		for _, x := range xs {
			d, err := x.resolveSmall()
			if err != nil {
				return nil, err
			}
			for i := 0; i < d.R; i++ {
				rows = append(rows, d.Row(i))
			}
		}
		return s.smallFM(dense.FromRows(rows)), nil
	}
	parts := make([]*dense.Dense, len(xs))
	for i, x := range xs {
		d, err := x.AsDense()
		if err != nil {
			return nil, err
		}
		parts[i] = d
	}
	big := dense.New(int(totalRows), int(cols))
	off := 0
	for _, d := range parts {
		copy(big.Data[off:], d.Data)
		off += len(d.Data)
	}
	return s.FromDense(big)
}

// Rbind is TryRbind's panicking shorthand.
func Rbind(xs ...*FM) *FM { return must(TryRbind(xs...)) }

// TrySetCols is the functional form of R's `x[, cols] <- v`: it returns x
// with the given columns replaced by the columns of v. On tall matrices the
// result is a virtual matrix constructed on the fly (§3.1 of the paper); no
// copy of x is materialized.
func TrySetCols(x *FM, cols []int, v *FM) (*FM, error) {
	_, nc := x.dims()
	for _, c := range cols {
		if c < 0 || int64(c) >= nc {
			return nil, errf("set.cols", shapesOf(x, v), "column %d out of range [0,%d)", c, nc)
		}
	}
	if x.isBig() {
		if x.trans {
			return nil, errf("set.cols", shapesOf(x, v), "on transposed large matrix")
		}
		vb, err := v.promote()
		if err != nil {
			return nil, err
		}
		return x.s.bigFM(core.SetCols(x.big, vb, cols)), nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	vd, err := v.resolveSmall()
	if err != nil {
		return nil, err
	}
	d = d.Clone()
	for i := 0; i < d.R; i++ {
		for j, c := range cols {
			d.Set(i, c, vd.At(i, j))
		}
	}
	return x.s.smallFM(d), nil
}

// SetCols is TrySetCols's panicking shorthand.
func SetCols(x *FM, cols []int, v *FM) *FM { return must(TrySetCols(x, cols, v)) }

// GroupBy is the generalized element groupby of Table 1: elements of x are
// grouped by value and folded with the named aggregation per group. Output
// size depends on the data, so it materializes immediately (like table).
func GroupBy(x *FM, fname string) (keys, folds []float64, err error) {
	f, err := core.LookupAgg(fname)
	if err != nil {
		return nil, nil, errf("groupby", nil, "unknown aggregation function %q", fname)
	}
	if x.isBig() {
		g := core.GroupByVal(x.big, f)
		if err := x.s.materializeNow(context.Background(), "", nil, []*core.Sink{g}); err != nil {
			return nil, nil, err
		}
		k, v := g.GroupByValResult()
		return k, v, nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, nil, err
	}
	p := core.FoldValues(d.Data, f)
	return p.Keys, p.Folds, nil
}

// GetRows gathers arbitrary rows of x into a small in-memory matrix,
// touching only the I/O partitions that contain requested rows. (General
// large-matrix row shuffling is out of the paper's scope; this covers the
// R idiom x[idx, ] for moderate index sets.)
func GetRows(x *FM, idx []int64) (*dense.Dense, error) {
	if x.s.plan != nil {
		return nil, ErrPlanOnly
	}
	r, c := x.dims()
	for _, i := range idx {
		if i < 0 || i >= r {
			return nil, errf("get.rows", shapesOf(x), "row %d out of range [0,%d)", i, r)
		}
	}
	if !x.isBig() || x.trans {
		d, err := x.AsDense()
		if err != nil {
			return nil, err
		}
		out := dense.New(len(idx), int(c))
		for o, i := range idx {
			copy(out.Row(o), d.Row(int(i)))
		}
		return out, nil
	}
	if err := x.MaterializeCtx(context.Background()); err != nil {
		return nil, err
	}
	st := x.big.Store()
	pr, nc := st.PartRows(), int(c)
	// Group requested rows by partition so each partition is read once.
	byPart := map[int][]int{}
	for o, i := range idx {
		byPart[int(i)/pr] = append(byPart[int(i)/pr], o)
	}
	// A store on the array reads only the rows from the first to the last
	// requested one of each partition; other stores read whole partitions.
	ss, _ := core.UnwrapStore(st).(*matrix.SAFSStore)
	out := dense.New(len(idx), nc)
	var buf []float64
	for p, outs := range byPart {
		lo, hi := p*pr, p*pr+int(min(int64(pr), r-int64(p)*int64(pr)))
		if ss != nil {
			lo, hi = int(idx[outs[0]]), int(idx[outs[0]])+1
			for _, o := range outs[1:] {
				lo, hi = min(lo, int(idx[o])), max(hi, int(idx[o])+1)
			}
		}
		if n := (hi - lo) * nc; cap(buf) < n {
			buf = make([]float64, n)
		}
		part := buf[:(hi-lo)*nc]
		var err error
		if ss != nil {
			err = ss.ReadRows(int64(lo), part)
		} else {
			err = st.ReadPart(p, part)
		}
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			local := int(idx[o]) - lo
			copy(out.Row(o), part[local*nc:(local+1)*nc])
		}
	}
	return out, nil
}

// Explain renders the lazy computation DAG rooted at x as an indented tree
// (virtual matrices, their GenOps and shapes) — the structure Figure 6(a)
// of the paper draws.
func Explain(x *FM) string {
	switch {
	case x.big != nil:
		return core.Explain(x.big)
	case x.sink != nil:
		return core.ExplainSink(x.sink)
	default:
		r, c := x.dims()
		return fmt.Sprintf("dense %dx%d (materialized in memory)\n", r, c)
	}
}

// Unique returns the sorted distinct values (R's unique; output size is
// data-dependent, so this forces materialization, §3.4 case iv).
func Unique(x *FM) ([]float64, error) {
	keys, _, err := TableOf(x)
	return keys, err
}

// TableOf returns sorted distinct values and their counts (R's table).
func TableOf(x *FM) (keys []float64, counts []int64, err error) {
	if x.s.plan != nil {
		return nil, nil, ErrPlanOnly
	}
	if x.isBig() {
		t := core.Table(x.big)
		if err := x.s.materializeNow(context.Background(), "", nil, []*core.Sink{t}); err != nil {
			return nil, nil, err
		}
		k, c := t.TableResult()
		return k, c, nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, nil, err
	}
	p := core.FoldValues(d.Data, nil)
	return p.Keys, p.Counts, nil
}

// Head materializes and returns the first n rows as a dense matrix, reading
// only the partitions that hold them.
func Head(x *FM, n int) (*dense.Dense, error) {
	if x.s.plan != nil { // before sizing idx by a plan's unbounded nrow
		return nil, ErrPlanOnly
	}
	idx := make([]int64, max(0, min(int64(n), x.NRow())))
	for i := range idx {
		idx[i] = int64(i)
	}
	return GetRows(x, idx)
}
