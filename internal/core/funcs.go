// Package core implements FlashR's primary contribution: the generalized
// operations (GenOps) of Table 1, lazy evaluation of matrix operations into
// directed acyclic graphs (§3.4), and memory-hierarchy-aware DAG
// materialization (§3.5) — a single parallel pass over the data with
// two-level partitioning (I/O partitions split into processor-cache
// partitions), the DAG compiled once into an instruction list that runs per
// chunk, and buffer recycling at each slot's last use.
//
// Tall matrices (the partition dimension is rows) flow through the engine as
// virtual matrices; aggregation-style GenOps produce sink matrices whose
// small results live in memory, exactly as in the paper.
package core

import (
	"fmt"
	"math"
)

// Unary is a predefined elementwise unary function for sapply. ApplyV is the
// vectorized kernel the engine calls on Pcache chunks.
type Unary struct {
	Name   string
	F      func(float64) float64
	ApplyV func(dst, src []float64)
}

// Binary is a predefined elementwise binary function for mapply and the
// generalized inner product. The vectorized kernels cover the three operand
// shapes the engine encounters.
type Binary struct {
	Name string
	F    func(a, b float64) float64
	// ApplyVV computes dst[i] = F(a[i], b[i]).
	ApplyVV func(dst, a, b []float64)
	// ApplyVS computes dst[i] = F(a[i], s).
	ApplyVS func(dst, a []float64, s float64)
	// ApplySV computes dst[i] = F(s, b[i]).
	ApplySV func(dst []float64, s float64, b []float64)
}

// AggFunc is a predefined aggregation function for agg, agg.row, agg.col and
// groupby. Init is the fold identity; Step folds one element; Combine merges
// two partial results (used to merge per-thread partials, §3.3 (g,h,i)).
type AggFunc struct {
	Name    string
	Init    float64
	Step    func(acc, x float64) float64
	Combine func(a, b float64) float64
	// StepV folds a whole slice into acc.
	StepV func(acc float64, xs []float64) float64
}

func mkUnary(name string, f func(float64) float64) *Unary {
	return &Unary{
		Name: name,
		F:    f,
		ApplyV: func(dst, src []float64) {
			for i, v := range src {
				dst[i] = f(v)
			}
		},
	}
}

func mkBinary(name string, f func(a, b float64) float64) *Binary {
	return &Binary{
		Name: name,
		F:    f,
		ApplyVV: func(dst, a, b []float64) {
			for i := range dst {
				dst[i] = f(a[i], b[i])
			}
		},
		ApplyVS: func(dst, a []float64, s float64) {
			for i := range dst {
				dst[i] = f(a[i], s)
			}
		},
		ApplySV: func(dst []float64, s float64, b []float64) {
			for i := range dst {
				dst[i] = f(s, b[i])
			}
		},
	}
}

func mkAgg(name string, init float64, step func(acc, x float64) float64) *AggFunc {
	return &AggFunc{
		Name:    name,
		Init:    init,
		Step:    step,
		Combine: step,
		StepV: func(acc float64, xs []float64) float64 {
			for _, v := range xs {
				acc = step(acc, v)
			}
			return acc
		},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Predefined unary functions, addressable by their R names via LookupUnary.
var (
	UnarySqrt  = mkUnary("sqrt", math.Sqrt)
	UnaryExp   = mkUnary("exp", math.Exp)
	UnaryLog   = mkUnary("log", math.Log)
	UnaryLog1p = mkUnary("log1p", math.Log1p)
	UnaryAbs   = mkUnary("abs", math.Abs)
	UnaryNeg   = mkUnary("-", func(v float64) float64 { return -v })
	UnaryNot   = mkUnary("!", func(v float64) float64 { return b2f(v == 0) })
	UnaryFloor = mkUnary("floor", math.Floor)
	UnaryCeil  = mkUnary("ceiling", math.Ceil)
	UnaryRound = mkUnary("round", math.Round)
	UnarySign  = mkUnary("sign", func(v float64) float64 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		default:
			return 0
		}
	})
	UnarySquare  = mkUnary("square", func(v float64) float64 { return v * v })
	UnarySigmoid = mkUnary("sigmoid", func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	UnaryIdent   = mkUnary("identity", func(v float64) float64 { return v })
)

// Predefined binary functions (LookupBinary resolves R names).
var (
	BinAdd  = addBinary()
	BinSub  = mkBinary("-", func(a, b float64) float64 { return a - b })
	BinMul  = mulBinary()
	BinDiv  = mkBinary("/", func(a, b float64) float64 { return a / b })
	BinPow  = mkBinary("^", math.Pow)
	BinMod  = mkBinary("%%", func(a, b float64) float64 { return a - b*math.Floor(a/b) })
	BinPmin = mkBinary("pmin", math.Min)
	BinPmax = mkBinary("pmax", math.Max)
	BinEq   = mkBinary("==", func(a, b float64) float64 { return b2f(a == b) })
	BinNe   = mkBinary("!=", func(a, b float64) float64 { return b2f(a != b) })
	BinLt   = mkBinary("<", func(a, b float64) float64 { return b2f(a < b) })
	BinLe   = mkBinary("<=", func(a, b float64) float64 { return b2f(a <= b) })
	BinGt   = mkBinary(">", func(a, b float64) float64 { return b2f(a > b) })
	BinGe   = mkBinary(">=", func(a, b float64) float64 { return b2f(a >= b) })
	BinAnd  = mkBinary("&", func(a, b float64) float64 { return b2f(a != 0 && b != 0) })
	BinOr   = mkBinary("|", func(a, b float64) float64 { return b2f(a != 0 || b != 0) })
	// BinEuclid is the f1 of the Euclidean inner product in Figure 3:
	// accumulated with "+" it yields squared distances.
	BinEuclid = mkBinary("euclidean", func(a, b float64) float64 { d := a - b; return d * d })
)

// addBinary and mulBinary hand-unroll the hottest kernels instead of going
// through a function pointer per element.
func addBinary() *Binary {
	b := mkBinary("+", func(a, b float64) float64 { return a + b })
	b.ApplyVV = func(dst, a, bb []float64) {
		for i := range dst {
			dst[i] = a[i] + bb[i]
		}
	}
	b.ApplyVS = func(dst, a []float64, s float64) {
		for i := range dst {
			dst[i] = a[i] + s
		}
	}
	return b
}

func mulBinary() *Binary {
	b := mkBinary("*", func(a, b float64) float64 { return a * b })
	b.ApplyVV = func(dst, a, bb []float64) {
		for i := range dst {
			dst[i] = a[i] * bb[i]
		}
	}
	b.ApplyVS = func(dst, a []float64, s float64) {
		for i := range dst {
			dst[i] = a[i] * s
		}
	}
	return b
}

// Predefined aggregation functions (LookupAgg resolves R names).
var (
	AggSum = &AggFunc{
		Name: "+", Init: 0,
		Step:    func(acc, x float64) float64 { return acc + x },
		Combine: func(a, b float64) float64 { return a + b },
		StepV: func(acc float64, xs []float64) float64 {
			for _, v := range xs {
				acc += v
			}
			return acc
		},
	}
	AggProd  = mkAgg("*", 1, func(acc, x float64) float64 { return acc * x })
	AggMin   = mkAgg("min", math.Inf(1), math.Min)
	AggMax   = mkAgg("max", math.Inf(-1), math.Max)
	AggAny   = mkAgg("|", 0, func(acc, x float64) float64 { return b2f(acc != 0 || x != 0) })
	AggAll   = mkAgg("&", 1, func(acc, x float64) float64 { return b2f(acc != 0 && x != 0) })
	AggCount = &AggFunc{
		Name: "count", Init: 0,
		Step:    func(acc, x float64) float64 { return acc + 1 },
		Combine: func(a, b float64) float64 { return a + b },
		StepV:   func(acc float64, xs []float64) float64 { return acc + float64(len(xs)) },
	}
)

var unaryByName = map[string]*Unary{}
var binaryByName = map[string]*Binary{}
var aggByName = map[string]*AggFunc{}

func init() {
	for _, u := range []*Unary{UnarySqrt, UnaryExp, UnaryLog, UnaryLog1p, UnaryAbs,
		UnaryNeg, UnaryNot, UnaryFloor, UnaryCeil, UnaryRound, UnarySign,
		UnarySquare, UnarySigmoid, UnaryIdent} {
		unaryByName[u.Name] = u
	}
	for _, b := range []*Binary{BinAdd, BinSub, BinMul, BinDiv, BinPow, BinMod,
		BinPmin, BinPmax, BinEq, BinNe, BinLt, BinLe, BinGt, BinGe, BinAnd,
		BinOr, BinEuclid} {
		binaryByName[b.Name] = b
	}
	for _, a := range []*AggFunc{AggSum, AggProd, AggMin, AggMax, AggAny, AggAll, AggCount} {
		aggByName[a.Name] = a
	}
	aggByName["sum"] = AggSum
	aggByName["prod"] = AggProd
	aggByName["any"] = AggAny
	aggByName["all"] = AggAll
}

// LookupUnary resolves a predefined unary function by its R name.
func LookupUnary(name string) (*Unary, error) {
	if u, ok := unaryByName[name]; ok {
		return u, nil
	}
	return nil, fmt.Errorf("core: unknown unary function %q", name)
}

// LookupBinary resolves a predefined binary function by its R name.
func LookupBinary(name string) (*Binary, error) {
	if b, ok := binaryByName[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("core: unknown binary function %q", name)
}

// LookupAgg resolves a predefined aggregation function by its R name.
func LookupAgg(name string) (*AggFunc, error) {
	if a, ok := aggByName[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("core: unknown aggregation function %q", name)
}
