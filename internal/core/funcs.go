// Package core implements FlashR's primary contribution: the generalized
// operations (GenOps) of Table 1, lazy evaluation of matrix operations into
// directed acyclic graphs (§3.4), and memory-hierarchy-aware DAG
// materialization (§3.5) — a single parallel pass over the data with
// two-level partitioning (I/O partitions split into processor-cache
// partitions), the DAG compiled once into an instruction list that runs per
// chunk, and buffer recycling at each slot's last use from one buffer pool
// that outlives passes.
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

// mkBinary builds the kernels of an op whose body is a math call; they call
// f through a function value once per element.
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

// one is the bit pattern of 1.0.
const one = 0x3FF0000000000000

// selBits returns the bits of 1 when c holds and of 0 otherwise. Selecting
// in an integer register compiles to CMOVcc; choosing between two float64
// constants stays a branch, which data compared near its median mispredicts
// half the time.
func selBits(c bool) uint64 {
	var u uint64
	if c {
		u = one
	}
	return u
}

func sel(c bool) float64 { return math.Float64frombits(selBits(c)) }

// The scalar bodies of the predefined element-wise ops. Each is its op's F,
// and each chunk loop below calls it, inlined, so a kernel returns exactly
// the bits of F. A comparison or ! with a NaN operand is 0, and & and | read
// NaN as nonzero, where R gives NA, which has no double here.
//
// The loops whose body is a few instructions handle four elements per
// iteration, then a tail one at a time: four independent results per trip,
// and a loop whose speed barely depends on where the linker places it.
// Division gains nothing from that and keeps one element per trip.
func add(a, b float64) float64    { return a + b }
func sub(a, b float64) float64    { return a - b }
func mul(a, b float64) float64    { return a * b }
func div(a, b float64) float64    { return a / b }
func euclid(a, b float64) float64 { d := a - b; return d * d }
func eq(a, b float64) float64     { return sel(a == b) }
func ne(a, b float64) float64     { return sel(a != b) }
func lt(a, b float64) float64     { return sel(a < b) }
func le(a, b float64) float64     { return sel(a <= b) }
func gt(a, b float64) float64     { return sel(a > b) }
func ge(a, b float64) float64     { return sel(a >= b) }
func and(a, b float64) float64    { return math.Float64frombits(selBits(a != 0) & selBits(b != 0)) }
func or(a, b float64) float64     { return math.Float64frombits(selBits(a != 0) | selBits(b != 0)) }

func neg(v float64) float64     { return -v }
func not(v float64) float64     { return sel(v == 0) }
func square(v float64) float64  { return v * v }
func ident(v float64) float64   { return v }
func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// sign is R's: NaN stays NaN, and both zeros give +0.
func sign(v float64) float64 {
	u := math.Float64bits(v)
	if v > 0 {
		u = one
	}
	if v < 0 {
		u = one | 1<<63
	}
	if v == 0 {
		u = 0
	}
	return math.Float64frombits(u)
}

func addVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = add(x[0], y[0]), add(x[1], y[1]), add(x[2], y[2]), add(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = add(a[i], b[i])
	}
}

func subVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = sub(x[0], y[0]), sub(x[1], y[1]), sub(x[2], y[2]), sub(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = sub(a[i], b[i])
	}
}

func mulVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = mul(x[0], y[0]), mul(x[1], y[1]), mul(x[2], y[2]), mul(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = mul(a[i], b[i])
	}
}

func divVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = div(a[i], b[i])
	}
}

func euclidVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = euclid(x[0], y[0]), euclid(x[1], y[1]), euclid(x[2], y[2]), euclid(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = euclid(a[i], b[i])
	}
}

func eqVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = eq(x[0], y[0]), eq(x[1], y[1]), eq(x[2], y[2]), eq(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = eq(a[i], b[i])
	}
}

func neVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = ne(x[0], y[0]), ne(x[1], y[1]), ne(x[2], y[2]), ne(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = ne(a[i], b[i])
	}
}

func ltVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = lt(x[0], y[0]), lt(x[1], y[1]), lt(x[2], y[2]), lt(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = lt(a[i], b[i])
	}
}

func leVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = le(x[0], y[0]), le(x[1], y[1]), le(x[2], y[2]), le(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = le(a[i], b[i])
	}
}

func gtVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = gt(x[0], y[0]), gt(x[1], y[1]), gt(x[2], y[2]), gt(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = gt(a[i], b[i])
	}
}

func geVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = ge(x[0], y[0]), ge(x[1], y[1]), ge(x[2], y[2]), ge(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = ge(a[i], b[i])
	}
}

func andVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = and(x[0], y[0]), and(x[1], y[1]), and(x[2], y[2]), and(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = and(a[i], b[i])
	}
}

func orVV(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = or(x[0], y[0]), or(x[1], y[1]), or(x[2], y[2]), or(x[3], y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = or(a[i], b[i])
	}
}

func addVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = add(x[0], s), add(x[1], s), add(x[2], s), add(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = add(a[i], s)
	}
}

func subVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = sub(x[0], s), sub(x[1], s), sub(x[2], s), sub(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = sub(a[i], s)
	}
}

func mulVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = mul(x[0], s), mul(x[1], s), mul(x[2], s), mul(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = mul(a[i], s)
	}
}

func divVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = div(a[i], s)
	}
}

func euclidVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = euclid(x[0], s), euclid(x[1], s), euclid(x[2], s), euclid(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = euclid(a[i], s)
	}
}

func eqVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = eq(x[0], s), eq(x[1], s), eq(x[2], s), eq(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = eq(a[i], s)
	}
}

func neVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = ne(x[0], s), ne(x[1], s), ne(x[2], s), ne(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = ne(a[i], s)
	}
}

func ltVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = lt(x[0], s), lt(x[1], s), lt(x[2], s), lt(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = lt(a[i], s)
	}
}

func leVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = le(x[0], s), le(x[1], s), le(x[2], s), le(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = le(a[i], s)
	}
}

func gtVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = gt(x[0], s), gt(x[1], s), gt(x[2], s), gt(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = gt(a[i], s)
	}
}

func geVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = ge(x[0], s), ge(x[1], s), ge(x[2], s), ge(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = ge(a[i], s)
	}
}

func andVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = and(x[0], s), and(x[1], s), and(x[2], s), and(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = and(a[i], s)
	}
}

func orVS(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x := dst[i:i+4:i+4], a[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = or(x[0], s), or(x[1], s), or(x[2], s), or(x[3], s)
	}
	for ; i < len(dst); i++ {
		dst[i] = or(a[i], s)
	}
}

func addSV(dst []float64, s float64, b []float64) {
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, y := dst[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = add(s, y[0]), add(s, y[1]), add(s, y[2]), add(s, y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = add(s, b[i])
	}
}

func subSV(dst []float64, s float64, b []float64) {
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, y := dst[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = sub(s, y[0]), sub(s, y[1]), sub(s, y[2]), sub(s, y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = sub(s, b[i])
	}
}

func mulSV(dst []float64, s float64, b []float64) {
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, y := dst[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = mul(s, y[0]), mul(s, y[1]), mul(s, y[2]), mul(s, y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = mul(s, b[i])
	}
}

func divSV(dst []float64, s float64, b []float64) {
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = div(s, b[i])
	}
}

func euclidSV(dst []float64, s float64, b []float64) {
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, y := dst[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = euclid(s, y[0]), euclid(s, y[1]), euclid(s, y[2]), euclid(s, y[3])
	}
	for ; i < len(dst); i++ {
		dst[i] = euclid(s, b[i])
	}
}

// mirrored runs a scalar-left op through the scalar-right loop of the op
// that gives the same answer with its operands swapped: s > b[i] is
// b[i] < s, NaN included, and s == b[i] is b[i] == s.
func mirrored(vs func(dst, a []float64, s float64)) func(dst []float64, s float64, b []float64) {
	return func(dst []float64, s float64, b []float64) { vs(dst, b, s) }
}

func sqrtV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Sqrt(v)
	}
}

func expV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Exp(v)
	}
}

func logV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Log(v)
	}
}

func log1pV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Log1p(v)
	}
}

func absV(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, x := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = math.Abs(x[0]), math.Abs(x[1]), math.Abs(x[2]), math.Abs(x[3])
	}
	for ; i < len(src); i++ {
		dst[i] = math.Abs(src[i])
	}
}

func negV(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, x := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = neg(x[0]), neg(x[1]), neg(x[2]), neg(x[3])
	}
	for ; i < len(src); i++ {
		dst[i] = neg(src[i])
	}
}

func notV(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, x := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = not(x[0]), not(x[1]), not(x[2]), not(x[3])
	}
	for ; i < len(src); i++ {
		dst[i] = not(src[i])
	}
}

func floorV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Floor(v)
	}
}

func ceilV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Ceil(v)
	}
}

func roundV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.RoundToEven(v)
	}
}

func signV(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, x := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = sign(x[0]), sign(x[1]), sign(x[2]), sign(x[3])
	}
	for ; i < len(src); i++ {
		dst[i] = sign(src[i])
	}
}

func squareV(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, x := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = square(x[0]), square(x[1]), square(x[2]), square(x[3])
	}
	for ; i < len(src); i++ {
		dst[i] = square(src[i])
	}
}

func sigmoidV(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = sigmoid(v)
	}
}

func identV(dst, src []float64) { copy(dst, src) }

// Predefined unary functions, addressable by their R names via LookupUnary.
// round rounds half to even, as R does.
var (
	UnarySqrt    = &Unary{Name: "sqrt", F: math.Sqrt, ApplyV: sqrtV}
	UnaryExp     = &Unary{Name: "exp", F: math.Exp, ApplyV: expV}
	UnaryLog     = &Unary{Name: "log", F: math.Log, ApplyV: logV}
	UnaryLog1p   = &Unary{Name: "log1p", F: math.Log1p, ApplyV: log1pV}
	UnaryAbs     = &Unary{Name: "abs", F: math.Abs, ApplyV: absV}
	UnaryNeg     = &Unary{Name: "-", F: neg, ApplyV: negV}
	UnaryNot     = &Unary{Name: "!", F: not, ApplyV: notV}
	UnaryFloor   = &Unary{Name: "floor", F: math.Floor, ApplyV: floorV}
	UnaryCeil    = &Unary{Name: "ceiling", F: math.Ceil, ApplyV: ceilV}
	UnaryRound   = &Unary{Name: "round", F: math.RoundToEven, ApplyV: roundV}
	UnarySign    = &Unary{Name: "sign", F: sign, ApplyV: signV}
	UnarySquare  = &Unary{Name: "square", F: square, ApplyV: squareV}
	UnarySigmoid = &Unary{Name: "sigmoid", F: sigmoid, ApplyV: sigmoidV}
	UnaryIdent   = &Unary{Name: "identity", F: ident, ApplyV: identV}
)

// Predefined binary functions (LookupBinary resolves R names).
var (
	BinAdd  = &Binary{Name: "+", F: add, ApplyVV: addVV, ApplyVS: addVS, ApplySV: addSV}
	BinSub  = &Binary{Name: "-", F: sub, ApplyVV: subVV, ApplyVS: subVS, ApplySV: subSV}
	BinMul  = &Binary{Name: "*", F: mul, ApplyVV: mulVV, ApplyVS: mulVS, ApplySV: mulSV}
	BinDiv  = &Binary{Name: "/", F: div, ApplyVV: divVV, ApplyVS: divVS, ApplySV: divSV}
	BinPow  = mkBinary("^", math.Pow)
	BinMod  = mkBinary("%%", func(a, b float64) float64 { return a - b*math.Floor(a/b) })
	BinPmin = mkBinary("pmin", math.Min)
	BinPmax = mkBinary("pmax", math.Max)
	BinEq   = &Binary{Name: "==", F: eq, ApplyVV: eqVV, ApplyVS: eqVS, ApplySV: mirrored(eqVS)}
	BinNe   = &Binary{Name: "!=", F: ne, ApplyVV: neVV, ApplyVS: neVS, ApplySV: mirrored(neVS)}
	BinLt   = &Binary{Name: "<", F: lt, ApplyVV: ltVV, ApplyVS: ltVS, ApplySV: mirrored(gtVS)}
	BinLe   = &Binary{Name: "<=", F: le, ApplyVV: leVV, ApplyVS: leVS, ApplySV: mirrored(geVS)}
	BinGt   = &Binary{Name: ">", F: gt, ApplyVV: gtVV, ApplyVS: gtVS, ApplySV: mirrored(ltVS)}
	BinGe   = &Binary{Name: ">=", F: ge, ApplyVV: geVV, ApplyVS: geVS, ApplySV: mirrored(leVS)}
	BinAnd  = &Binary{Name: "&", F: and, ApplyVV: andVV, ApplyVS: andVS, ApplySV: mirrored(andVS)}
	BinOr   = &Binary{Name: "|", F: or, ApplyVV: orVV, ApplyVS: orVS, ApplySV: mirrored(orVS)}
	// BinEuclid is the f1 of the Euclidean inner product in Figure 3:
	// accumulated with "+" it yields squared distances.
	BinEuclid = &Binary{Name: "euclidean", F: euclid, ApplyVV: euclidVV, ApplyVS: euclidVS, ApplySV: euclidSV}
)

// Predefined aggregation functions (LookupAgg resolves R names).
var (
	AggSum = &AggFunc{
		Name: "+", Init: 0,
		Step:    add,
		Combine: add,
		StepV: func(acc float64, xs []float64) float64 {
			for _, v := range xs {
				acc += v
			}
			return acc
		},
	}
	AggProd  = mkAgg("*", 1, mul)
	AggMin   = &AggFunc{Name: "min", Init: math.Inf(1), Step: minStep, Combine: minStep, StepV: minV}
	AggMax   = &AggFunc{Name: "max", Init: math.Inf(-1), Step: maxStep, Combine: maxStep, StepV: maxV}
	AggAny   = mkAgg("|", 0, or)
	AggAll   = mkAgg("&", 1, and)
	AggCount = &AggFunc{
		Name: "count", Init: 0,
		Step:    func(acc, x float64) float64 { return acc + 1 },
		Combine: add,
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
