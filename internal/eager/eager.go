// Package eager implements the competitor baselines of the paper's
// evaluation (§4.3): execution engines that materialize every matrix
// operation separately, the way H2O and Spark MLlib do. The paper attributes
// FlashR's 3–20× advantage to exactly the costs modelled here — per-op
// passes and allocations, boxed per-element function dispatch, and
// serialization at aggregation boundaries — while all frameworks share BLAS
// for matrix multiplication ("All implementations rely on BLAS for matrix
// multiplication, but H2O and MLlib implement non-BLAS operations with Java
// and Scala. Spark materializes operations such as aggregation
// separately.").
//
// Three styles are provided:
//
//   - StyleMLlib (Spark-like): row-iterator execution with per-element
//     boxed function calls through an interface, a fresh allocation per
//     operation, and partial-aggregate serialization/deserialization at
//     every reduce boundary (Spark's shuffle path).
//   - StyleH2O: vectorized chunk kernels (H2O compiles tight loops over
//     chunks) but still one full pass and one materialized result per
//     operation.
//   - StyleROpen (Revolution R Open-like): parallel BLAS matrix multiply,
//     single-threaded eager everything else — Fig. 8's comparator, which
//     demonstrates that parallelizing only matmul is insufficient.
//
// The same algorithm implementations run on all styles; only the operator
// layer differs. Instrumentation counters record passes, bytes moved and
// reduce boundaries so the cluster cost simulator (internal/cluster) can
// model distributed execution on top.
package eager

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/dense"
)

// Style selects the framework being modelled.
type Style int8

const (
	// StyleMLlib models Spark MLlib.
	StyleMLlib Style = iota
	// StyleH2O models H2O.
	StyleH2O
	// StyleROpen models Revolution R Open.
	StyleROpen
)

func (s Style) String() string {
	switch s {
	case StyleMLlib:
		return "MLlib-like"
	case StyleH2O:
		return "H2O-like"
	case StyleROpen:
		return "ROpen-like"
	default:
		return "eager"
	}
}

// Stats counts the framework-characteristic work an algorithm performed.
type Stats struct {
	Passes       atomic.Int64 // materialized operations (full data passes)
	ReduceOps    atomic.Int64 // aggregation boundaries (Spark shuffles)
	ShuffleBytes atomic.Int64 // partial-aggregate bytes serialized
	BytesTouched atomic.Int64 // matrix bytes read+written across passes
}

// Engine is an eager, materialize-every-op executor.
type Engine struct {
	Style   Style
	Workers int
	Stats   Stats
}

// New builds an engine; workers<=0 selects GOMAXPROCS (StyleROpen forces 1
// worker for non-BLAS ops regardless).
func New(style Style, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{Style: style, Workers: workers}
}

// boxed is the JVM-ish virtual-dispatch element function used by the
// MLlib-style row iterator.
type boxed interface {
	apply(x float64) float64
}

type boxedFunc struct{ f func(float64) float64 }

func (b *boxedFunc) apply(x float64) float64 { return b.f(x) }

type boxed2 interface {
	apply2(a, b float64) float64
}

type boxedFunc2 struct{ f func(a, b float64) float64 }

func (b *boxedFunc2) apply2(x, y float64) float64 { return b.f(x, y) }

// parallelRows splits [0, rows) across the engine's workers. StyleROpen
// runs everything single-threaded (only its BLAS is parallel).
func (e *Engine) parallelRows(rows int, body func(r0, r1 int)) {
	workers := e.Workers
	if e.Style == StyleROpen {
		workers = 1
	}
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		body(0, rows)
		return
	}
	var wg sync.WaitGroup
	step := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * step
		r1 := min(r0+step, rows)
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			body(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

func (e *Engine) touch(d *dense.Dense) {
	e.Stats.BytesTouched.Add(int64(len(d.Data)) * 8)
}

// Map materializes f applied elementwise — one pass, one allocation.
func (e *Engine) Map(a *dense.Dense, f func(float64) float64) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, a.C)
	e.touch(out)
	if e.Style == StyleMLlib {
		bf := boxed(&boxedFunc{f})
		e.parallelRows(a.R, func(r0, r1 int) {
			for r := r0; r < r1; r++ {
				// Spark's RDD path materializes a Row object per record
				// before the UDF sees it.
				src := append([]float64(nil), a.Row(r)...)
				dst := out.Row(r)
				for j := range src {
					dst[j] = bf.apply(src[j]) // boxed per-element dispatch
				}
			}
		})
		return out
	}
	e.parallelRows(a.R, func(r0, r1 int) {
		copy(out.Data[r0*a.C:r1*a.C], a.Data[r0*a.C:r1*a.C])
		seg := out.Data[r0*a.C : r1*a.C]
		for i, v := range seg {
			seg[i] = f(v)
		}
	})
	return out
}

// Zip materializes the elementwise combination of two matrices.
func (e *Engine) Zip(a, b *dense.Dense, f func(x, y float64) float64) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	e.touch(b)
	out := dense.New(a.R, a.C)
	e.touch(out)
	if e.Style == StyleMLlib {
		bf := boxed2(&boxedFunc2{f})
		e.parallelRows(a.R, func(r0, r1 int) {
			for r := r0; r < r1; r++ {
				ra := append([]float64(nil), a.Row(r)...) // Row object
				rb := b.Row(r)
				ro := out.Row(r)
				for j := range ro {
					ro[j] = bf.apply2(ra[j], rb[j])
				}
			}
		})
		return out
	}
	e.parallelRows(a.R, func(r0, r1 int) {
		for i := r0 * a.C; i < r1*a.C; i++ {
			out.Data[i] = f(a.Data[i], b.Data[i])
		}
	})
	return out
}

// MapScalar materializes f(x, s) elementwise.
func (e *Engine) MapScalar(a *dense.Dense, s float64, f func(x, s float64) float64) *dense.Dense {
	return e.Map(a, func(x float64) float64 { return f(x, s) })
}

// SweepRows materializes f(x, v[col]) (R's sweep margin 2).
func (e *Engine) SweepRows(a *dense.Dense, v []float64, f func(x, s float64) float64) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, a.C)
	e.touch(out)
	e.parallelRows(a.R, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			src, dst := a.Row(r), out.Row(r)
			for j := range src {
				dst[j] = f(src[j], v[j])
			}
		}
	})
	return out
}

// SweepCols materializes f(x, v[row]) (R's sweep margin 1).
func (e *Engine) SweepCols(a *dense.Dense, v []float64, f func(x, s float64) float64) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, a.C)
	e.touch(out)
	e.parallelRows(a.R, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			src, dst := a.Row(r), out.Row(r)
			for j := range src {
				dst[j] = f(src[j], v[r])
			}
		}
	})
	return out
}

// reduce runs per-worker partial aggregation with the style's
// serialization overhead at the combine boundary, and returns the combined
// partials.
func (e *Engine) reduce(rows, width int, fold func(r0, r1 int, acc []float64), combine func(dst, src []float64)) []float64 {
	e.Stats.Passes.Add(1)
	e.Stats.ReduceOps.Add(1)
	workers := e.Workers
	if e.Style == StyleROpen {
		workers = 1
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	partials := make([][]float64, workers)
	var wg sync.WaitGroup
	step := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * step
		r1 := min(r0+step, rows)
		partials[w] = make([]float64, width)
		if r0 >= r1 {
			continue
		}
		wg.Add(1)
		go func(w, r0, r1 int) {
			defer wg.Done()
			fold(r0, r1, partials[w])
		}(w, r0, r1)
	}
	wg.Wait()
	if e.Style == StyleMLlib {
		// Spark serializes partial aggregates between stages.
		for w := range partials {
			partials[w] = roundTripSerialize(partials[w])
			e.Stats.ShuffleBytes.Add(int64(width) * 8)
		}
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		combine(acc, p)
	}
	return acc
}

// roundTripSerialize encodes and decodes a partial aggregate, modelling the
// JVM serialization cost on Spark's shuffle path.
func roundTripSerialize(v []float64) []float64 {
	buf := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	out := make([]float64, len(v))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

// Sum reduces to a scalar.
func (e *Engine) Sum(a *dense.Dense) float64 {
	e.touch(a)
	acc := e.reduce(a.R, 1, func(r0, r1 int, acc []float64) {
		var s float64
		for i := r0 * a.C; i < r1*a.C; i++ {
			s += a.Data[i]
		}
		acc[0] = s
	}, func(dst, src []float64) { dst[0] += src[0] })
	return acc[0]
}

// ColSums reduces every column.
func (e *Engine) ColSums(a *dense.Dense) []float64 {
	e.touch(a)
	return e.reduce(a.R, a.C, func(r0, r1 int, acc []float64) {
		for r := r0; r < r1; r++ {
			row := a.Row(r)
			for j, v := range row {
				acc[j] += v
			}
		}
	}, func(dst, src []float64) {
		for j := range dst {
			dst[j] += src[j]
		}
	})
}

// RowMax materializes the per-row maxima (no reduce boundary).
func (e *Engine) RowMax(a *dense.Dense) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, 1)
	e.parallelRows(a.R, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			row := a.Row(r)
			m := row[0]
			for _, v := range row[1:] {
				if v > m {
					m = v
				}
			}
			out.Data[r] = m
		}
	})
	return out
}

// RowSums materializes the per-row sums (no reduce boundary).
func (e *Engine) RowSums(a *dense.Dense) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, 1)
	e.parallelRows(a.R, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			var s float64
			for _, v := range a.Row(r) {
				s += v
			}
			out.Data[r] = s
		}
	})
	return out
}

// MatMul uses the shared BLAS kernel (parallel in every style — Revolution
// R Open parallelizes exactly this).
func (e *Engine) MatMul(a, b *dense.Dense) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	e.touch(b)
	out := dense.New(a.R, b.C)
	e.touch(out)
	blas.ParallelGemm(e.Workers, a.R, b.C, a.C, a.Data, a.C, b.Data, b.C, out.Data, out.C)
	return out
}

// CrossProd computes t(a) %*% b with per-worker partials and a reduce
// boundary. The MLlib style accumulates one rank-1 update per row (Spark's
// RowMatrix.computeGramianMatrix folds BLAS.spr over a row iterator) with a
// Vector object per record; the other styles use the blocked level-3 kernel.
func (e *Engine) CrossProd(a, b *dense.Dense) *dense.Dense {
	e.touch(a)
	e.touch(b)
	pa, pb := a.C, b.C
	symmetric := a == b
	style := e.Style
	acc := e.reduce(a.R, pa*pb, func(r0, r1 int, acc []float64) {
		switch {
		case style == StyleMLlib:
			for r := r0; r < r1; r++ {
				arow := append([]float64(nil), a.Row(r)...) // Vector object
				brow := b.Row(r)
				for i, av := range arow {
					row := acc[i*pb : (i+1)*pb]
					for j, bv := range brow {
						row[j] += av * bv
					}
				}
			}
		case style == StyleROpen && symmetric:
			// Revolution R's crossprod calls MKL dsyrk.
			blas.Syrk(r1-r0, pa, a.Data[r0*pa:], pa, acc, pa)
		default:
			blas.GemmTA(r1-r0, pb, pa, a.Data[r0*pa:], pa, b.Data[r0*pb:], pb, acc, pb)
		}
	}, func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	})
	if style == StyleROpen && symmetric {
		blas.SymmetrizeLower(pa, acc, pa)
	}
	return dense.FromSlice(pa, pb, acc)
}

// EuclidDist materializes the n×k squared distances from rows of a to rows
// of c.
func (e *Engine) EuclidDist(a, c *dense.Dense) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, c.R)
	e.touch(out)
	mllib := e.Style == StyleMLlib
	e.parallelRows(a.R, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			row := a.Row(r)
			if mllib {
				// Spark materializes a Vector object per point before
				// fastSquaredDistance sees it.
				row = append([]float64(nil), row...)
			}
			dst := out.Row(r)
			for g := 0; g < c.R; g++ {
				var s float64
				crow := c.Row(g)
				for j := range row {
					d := row[j] - crow[j]
					s += d * d
				}
				dst[g] = s
			}
		}
	})
	return out
}

// ArgMinRow materializes each row's argmin.
func (e *Engine) ArgMinRow(a *dense.Dense) *dense.Dense {
	e.Stats.Passes.Add(1)
	e.touch(a)
	out := dense.New(a.R, 1)
	e.parallelRows(a.R, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			row := a.Row(r)
			best, bv := 0, row[0]
			for j, v := range row[1:] {
				if v < bv {
					bv, best = v, j+1
				}
			}
			out.Data[r] = float64(best)
		}
	})
	return out
}

// GroupByRow aggregates rows by 0-based labels into k×p sums plus counts,
// with a reduce boundary.
func (e *Engine) GroupByRow(a *dense.Dense, labels *dense.Dense, k int) (sums *dense.Dense, counts []float64) {
	e.touch(a)
	p := a.C
	acc := e.reduce(a.R, k*p+k, func(r0, r1 int, acc []float64) {
		for r := r0; r < r1; r++ {
			g := int(labels.Data[r])
			row := a.Row(r)
			for j, v := range row {
				acc[g*p+j] += v
			}
			acc[k*p+g]++
		}
	}, func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	})
	return dense.FromSlice(k, p, acc[:k*p]), acc[k*p:]
}
