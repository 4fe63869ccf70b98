package repl

import (
	"context"
	"fmt"

	flashr "repro"
)

// evalCall dispatches function-call syntax to the flashr API. The table
// mirrors the paper's Tables 1–3.
func (e *Env) evalCall(t *callNode) (Value, error) {
	args := make([]Value, len(t.args))
	for i, a := range t.args {
		v, err := e.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	mat := func(i int) (*flashr.FM, error) {
		if i >= len(args) || !args[i].IsMatrix() {
			return nil, fmt.Errorf("%s: argument %d must be a matrix", t.name, i+1)
		}
		return args[i].Mat, nil
	}
	// num returns argument i as a number, forcing a deferred scalar.
	num := func(i int) (float64, error) {
		if i >= len(args) || !args[i].scalar() {
			return 0, fmt.Errorf("%s: argument %d must be a number", t.name, i+1)
		}
		return args[i].number()
	}
	str := func(i int) (string, error) {
		if i >= len(args) || !args[i].isStr {
			return "", fmt.Errorf("%s: argument %d must be a string", t.name, i+1)
		}
		return args[i].Str, nil
	}
	// optNum is num with def for a missing or non-numeric argument.
	optNum := func(i int, def float64) (float64, error) {
		if i < len(args) && args[i].scalar() {
			return args[i].number()
		}
		return def, nil
	}

	// Unary elementwise functions share one path; on a deferred scalar the
	// result is one too.
	if flashrUnary[t.name] {
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return Value{Mat: flashr.Sapply(x, t.name), deferred: args[0].deferred}, nil
	}
	// Whole-matrix reductions: the 1×1 result stays a pending sink so a
	// whole batch of reductions flushes as one pass.
	if agg, ok := reductions[t.name]; ok {
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return deferredVal(agg(x)), nil
	}

	switch t.name {
	// ---- creation (Table 3) ----
	case "runif.matrix", "rnorm.matrix":
		n, err := num(0)
		if err != nil {
			return Value{}, err
		}
		p, err := num(1)
		if err != nil {
			return Value{}, err
		}
		// min and max for runif, mean and sd for rnorm.
		a, err := optNum(2, 0)
		if err != nil {
			return Value{}, err
		}
		b, err := optNum(3, 1)
		if err != nil {
			return Value{}, err
		}
		seed, err := optNum(4, 1)
		if err != nil {
			return Value{}, err
		}
		gen := e.S.Runif
		if t.name == "rnorm.matrix" {
			gen = e.S.Rnorm
		}
		m, err := gen(int64(n), int(p), a, b, int64(seed))
		if err != nil {
			return Value{}, err
		}
		return matVal(m), nil
	case "ones", "zeros":
		n, err := num(0)
		if err != nil {
			return Value{}, err
		}
		p, err := optNum(1, 1)
		if err != nil {
			return Value{}, err
		}
		if t.name == "ones" {
			return matVal(e.S.Ones(int64(n), int(p))), nil
		}
		return matVal(e.S.Zeros(int64(n), int(p))), nil
	case "seq":
		n, err := num(0)
		if err != nil {
			return Value{}, err
		}
		m, err := e.S.SeqVec(int64(n))
		if err != nil {
			return Value{}, err
		}
		return matVal(m), nil
	case "load.dense":
		path, err := str(0)
		if err != nil {
			return Value{}, err
		}
		sep := ","
		if len(args) > 1 && args[1].isStr {
			sep = args[1].Str
		}
		m, err := e.S.LoadCSV(path, sep)
		if err != nil {
			return Value{}, err
		}
		return matVal(m), nil
	case "save.csv":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		path, err := str(1)
		if err != nil {
			return Value{}, err
		}
		return nullVal(), flashr.SaveCSV(x, path, ",")

	// ---- structure (Table 3) ----
	case "t":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return matVal(x.T()), nil
	case "dim":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		r, c := x.Dim()
		return matVal(e.S.SmallFromRows([][]float64{{float64(r), float64(c)}})), nil
	case "nrow":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return numVal(float64(x.NRow())), nil
	case "ncol":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return numVal(float64(x.NCol())), nil
	case "length":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return numVal(float64(x.Length())), nil
	case "cbind", "rbind":
		ms := make([]*flashr.FM, len(args))
		for i := range args {
			m, err := mat(i)
			if err != nil {
				return Value{}, err
			}
			ms[i] = m
		}
		if t.name == "cbind" {
			return matVal(flashr.Cbind(ms...)), nil
		}
		return matVal(flashr.Rbind(ms...)), nil

	// ---- row/column reductions ----
	case "rowSums", "rowMeans", "colSums", "colMeans":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		switch t.name {
		case "rowSums":
			return matVal(flashr.RowSums(x)), nil
		case "rowMeans":
			return matVal(flashr.RowMeans(x)), nil
		case "colSums":
			return matVal(flashr.ColSums(x)), nil
		default:
			return matVal(flashr.ColMeans(x)), nil
		}

	// ---- binary elementwise with function-style call ----
	case "pmin", "pmax":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		if t.name == "pmin" {
			return matVal(flashr.Pmin(x, operand(args[1]))), nil
		}
		return matVal(flashr.Pmax(x, operand(args[1]))), nil

	// ---- GenOps (Table 1) ----
	case "sapply":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		f, err := str(1)
		if err != nil {
			return Value{}, err
		}
		return matVal(flashr.Sapply(x, f)), nil
	case "mapply":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		f, err := str(2)
		if err != nil {
			return Value{}, err
		}
		return matVal(flashr.Mapply(x, operand(args[1]), f)), nil
	case "agg":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		f, err := str(1)
		if err != nil {
			return Value{}, err
		}
		return deferredVal(flashr.Agg(x, f)), nil
	case "agg.row", "agg.col":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		f, err := str(1)
		if err != nil {
			return Value{}, err
		}
		if t.name == "agg.row" {
			return matVal(flashr.AggRow(x, f)), nil
		}
		return matVal(flashr.AggCol(x, f)), nil
	case "which.min.row", "which.max.row":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		if t.name == "which.min.row" {
			return matVal(flashr.RowWhichMin(x)), nil
		}
		return matVal(flashr.RowWhichMax(x)), nil
	case "inner.prod":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		y, err := mat(1)
		if err != nil {
			return Value{}, err
		}
		f1, err := str(2)
		if err != nil {
			return Value{}, err
		}
		f2, err := str(3)
		if err != nil {
			return Value{}, err
		}
		return matVal(flashr.InnerProd(x, y, f1, f2)), nil
	case "groupby.row":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		lab, err := mat(1)
		if err != nil {
			return Value{}, err
		}
		k, err := num(2)
		if err != nil {
			return Value{}, err
		}
		f, err := str(3)
		if err != nil {
			return Value{}, err
		}
		return matVal(flashr.GroupByRow(x, lab, int(k), f)), nil
	case "crossprod":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		if len(args) > 1 {
			y, err := mat(1)
			if err != nil {
				return Value{}, err
			}
			return matVal(flashr.CrossProd2(x, y)), nil
		}
		return matVal(flashr.CrossProd(x)), nil
	case "sweep":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		margin, err := num(1)
		if err != nil {
			return Value{}, err
		}
		v, err := mat(2)
		if err != nil {
			return Value{}, err
		}
		f := "-"
		if len(args) > 3 && args[3].isStr {
			f = args[3].Str
		}
		return matVal(flashr.Sweep(x, int(margin), v, f)), nil
	case "cumsum":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return matVal(flashr.Cumsum(x)), nil

	// ---- data-dependent sinks ----
	case "table":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		keys, counts, err := flashr.TableOf(x)
		if err != nil {
			return Value{}, err
		}
		rows := make([][]float64, len(keys))
		for i := range keys {
			rows[i] = []float64{keys[i], float64(counts[i])}
		}
		return matVal(e.S.SmallFromRows(rows)), nil
	case "unique":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		keys, err := flashr.Unique(x)
		if err != nil {
			return Value{}, err
		}
		rows := make([][]float64, len(keys))
		for i, k := range keys {
			rows[i] = []float64{k}
		}
		return matVal(e.S.SmallFromRows(rows)), nil

	// ---- tuning (Table 3) ----
	case "materialize":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return args[0], x.MaterializeCtx(context.Background())
	case "set.cache":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		em, err := optNum(1, 0)
		if err != nil {
			return Value{}, err
		}
		return matVal(x.SetCache(em != 0)), nil
	case "as.matrix", "as.vector", "head":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		n, err := optNum(1, 6)
		if err != nil {
			return Value{}, err
		}
		d, err := flashr.Head(x, int(n))
		if err != nil {
			return Value{}, err
		}
		return matVal(e.S.Small(d)), nil
	case "explain":
		x, err := mat(0)
		if err != nil {
			return Value{}, err
		}
		return strVal(flashr.Explain(x)), nil
	}
	return Value{}, fmt.Errorf("could not find function %q", t.name)
}

var flashrUnary = map[string]bool{
	"sqrt": true, "exp": true, "log": true, "log1p": true, "abs": true,
	"floor": true, "ceiling": true, "round": true, "sign": true,
	"sigmoid": true, "square": true,
}

var reductions = map[string]func(*flashr.FM) *flashr.FM{
	"sum":  flashr.Sum,
	"mean": flashr.Mean,
	"min":  flashr.Min,
	"max":  flashr.Max,
	"prod": flashr.Prod,
	"any":  flashr.Any,
	"all":  flashr.All,
}
