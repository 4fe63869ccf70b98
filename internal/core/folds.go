package core

import "math"

// minStep and maxStep are AggMin's and AggMax's Step: math.Min and math.Max,
// special cases and all, written in Go so the fold and scan loops below
// inline them (math's amd64 versions are assembly, which no loop inlines).
// Unordered operands mean a NaN: an infinity of the winning sign still wins,
// else the result is math.NaN(). Equal operands have equal bits except ±0,
// where OR of the bits picks −0 for min and AND picks +0 for max. A running
// min or max rarely changes, so its branch predicts well and the loop
// carries no MINSD latency chain (the builtin min, branch-free, measured
// 2–7× slower in these loops).
func minStep(x, y float64) float64 {
	switch {
	case x < y:
		return x
	case y < x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
	case x < -math.MaxFloat64 || y < -math.MaxFloat64:
		return math.Float64frombits(negInfBits)
	}
	return math.Float64frombits(nanBits)
}

func maxStep(x, y float64) float64 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x > math.MaxFloat64 || y > math.MaxFloat64:
		return math.Float64frombits(posInfBits)
	}
	return math.Float64frombits(nanBits)
}

// minV and maxV are AggMin's and AggMax's StepV (agg, agg.row).
func minV(acc float64, xs []float64) float64 {
	for _, v := range xs {
		acc = minStep(acc, v)
	}
	return acc
}

func maxV(acc float64, xs []float64) float64 {
	for _, v := range xs {
		acc = maxStep(acc, v)
	}
	return acc
}

// The bits of −Inf, +Inf and math.NaN().
const (
	negInfBits = 0xFFF0000000000000
	posInfBits = 0x7FF0000000000000
	nanBits    = 0x7FF8000000000001
)

// scanCols runs cum.col over cr rows of len(run) columns: run enters as the
// carry into the first row and leaves as the carry out of the last, and each
// row of out is run after that row. The sum's body is AggSum's Step, inlined,
// four rows per sweep over run (one load and store of run[j] per four rows,
// each column's additions still in row order), so its outputs have the bits
// of the plain loop over Step, which every other aggregate runs.
func scanCols(f *AggFunc, run, out, in []float64, cr int) {
	nc := len(run)
	r := 0
	if f == AggSum {
		for ; r+4 <= cr; r += 4 {
			a0, o0 := in[r*nc:][:nc], out[r*nc:][:nc]
			a1, o1 := in[(r+1)*nc:][:nc], out[(r+1)*nc:][:nc]
			a2, o2 := in[(r+2)*nc:][:nc], out[(r+2)*nc:][:nc]
			a3, o3 := in[(r+3)*nc:][:nc], out[(r+3)*nc:][:nc]
			for j, v := range run {
				v += a0[j]
				o0[j] = v
				v += a1[j]
				o1[j] = v
				v += a2[j]
				o2[j] = v
				v += a3[j]
				o3[j] = v
				run[j] = v
			}
		}
	}
	for ; r < cr; r++ {
		arow := in[r*nc:][:nc]
		orow := out[r*nc:][:nc]
		if f == AggSum {
			for j, x := range arow {
				v := run[j] + x
				run[j] = v
				orow[j] = v
			}
			continue
		}
		for j, x := range arow {
			v := f.Step(run[j], x)
			run[j] = v
			orow[j] = v
		}
	}
}
