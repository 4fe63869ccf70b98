// Package dense implements small, always-in-memory row-major matrices.
//
// In FlashR the results of sink GenOps (aggregations, group-bys, Gramians,
// cluster centers) are small and kept in memory (§3.4: "Sink matrices tend
// to be small and, once materialized, store results in memory"), and small
// operands such as the right-hand side of an inner product are shared
// read-only among all worker threads. This package is that small-matrix
// substrate: a plain dense type with the eager operations the public API and
// the linear-algebra layer need.
package dense

import (
	"fmt"
	"math"

	"repro/internal/blas"
)

// Dense is a row-major r×c matrix of float64.
type Dense struct {
	R, C int
	Data []float64
}

// New allocates a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: invalid shape %dx%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps existing row-major data (not copied).
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("dense: %d elements for %dx%d", len(data), r, c))
	}
	return &Dense{R: r, C: c, Data: data}
}

// FromRows builds a matrix from row slices (copied).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	d := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != d.C {
			panic(fmt.Sprintf("dense: ragged row %d: %d != %d", i, len(row), d.C))
		}
		copy(d.Row(i), row)
	}
	return d
}

// Identity returns the n×n identity.
func Identity(n int) *Dense {
	d := New(n, n)
	for i := 0; i < n; i++ {
		d.Data[i*n+i] = 1
	}
	return d
}

// Clone deep-copies the matrix.
func (d *Dense) Clone() *Dense {
	out := New(d.R, d.C)
	copy(out.Data, d.Data)
	return out
}

// At returns element (i,j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.C+j] }

// Set assigns element (i,j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.C+j] = v }

// Row returns row i as a slice view.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.C : (i+1)*d.C] }

// Col copies column j into a new slice.
func (d *Dense) Col(j int) []float64 {
	out := make([]float64, d.R)
	for i := 0; i < d.R; i++ {
		out[i] = d.Data[i*d.C+j]
	}
	return out
}

// T returns the transpose as a new matrix.
func (d *Dense) T() *Dense {
	out := New(d.C, d.R)
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			out.Data[j*d.R+i] = d.Data[i*d.C+j]
		}
	}
	return out
}

// sameShape panics unless a and b have identical shape.
func sameShape(op string, a, b *Dense) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("dense: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}

// Add returns a+b.
func Add(a, b *Dense) *Dense { return zip("add", a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a-b.
func Sub(a, b *Dense) *Dense { return zip("sub", a, b, func(x, y float64) float64 { return x - y }) }

func zip(op string, a, b *Dense, f func(x, y float64) float64) *Dense {
	sameShape(op, a, b)
	out := New(a.R, a.C)
	for i, v := range a.Data {
		out.Data[i] = f(v, b.Data[i])
	}
	return out
}

// Apply returns f mapped over every element.
func (d *Dense) Apply(f func(float64) float64) *Dense {
	out := New(d.R, d.C)
	for i, v := range d.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Scale returns alpha*d.
func (d *Dense) Scale(alpha float64) *Dense {
	return d.Apply(func(v float64) float64 { return alpha * v })
}

// MatMul returns a %*% b using the blocked BLAS kernel.
func MatMul(a, b *Dense) *Dense {
	if a.C != b.R {
		panic(fmt.Sprintf("dense: matmul %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := New(a.R, b.C)
	blas.Gemm(a.R, b.C, a.C, a.Data, a.C, b.Data, b.C, out.Data, out.C)
	return out
}

// CrossProd returns t(a) %*% b.
func CrossProd(a, b *Dense) *Dense {
	if a.R != b.R {
		panic(fmt.Sprintf("dense: crossprod %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := New(a.C, b.C)
	blas.GemmTA(a.R, b.C, a.C, a.Data, a.C, b.Data, b.C, out.Data, out.C)
	return out
}

// Sum returns the sum over all elements.
func (d *Dense) Sum() float64 {
	var s float64
	for _, v := range d.Data {
		s += v
	}
	return s
}

// RowSums returns the length-R vector of row sums.
func (d *Dense) RowSums() []float64 {
	out := make([]float64, d.R)
	for i := 0; i < d.R; i++ {
		var s float64
		for _, v := range d.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSums returns the length-C vector of column sums.
func (d *Dense) ColSums() []float64 {
	out := make([]float64, d.C)
	for i := 0; i < d.R; i++ {
		row := d.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// SweepRows applies f(x, v[j]) to every element of every row (R's
// sweep(X, 2, v, f): the sweep vector runs along columns).
func (d *Dense) SweepRows(v []float64, f func(x, s float64) float64) *Dense {
	if len(v) != d.C {
		panic(fmt.Sprintf("dense: sweep vector %d != ncol %d", len(v), d.C))
	}
	out := New(d.R, d.C)
	for i := 0; i < d.R; i++ {
		row := d.Row(i)
		orow := out.Row(i)
		for j, x := range row {
			orow[j] = f(x, v[j])
		}
	}
	return out
}

// SweepCols applies f(x, v[i]) to every element of every column (R's
// sweep(X, 1, v, f)).
func (d *Dense) SweepCols(v []float64, f func(x, s float64) float64) *Dense {
	if len(v) != d.R {
		panic(fmt.Sprintf("dense: sweep vector %d != nrow %d", len(v), d.R))
	}
	out := New(d.R, d.C)
	for i := 0; i < d.R; i++ {
		row := d.Row(i)
		orow := out.Row(i)
		for j, x := range row {
			orow[j] = f(x, v[i])
		}
	}
	return out
}

// MaxAbsDiff returns max |a-b| over elements, for convergence tests.
func MaxAbsDiff(a, b *Dense) float64 {
	sameShape("maxabsdiff", a, b)
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Equalish reports whether a and b agree within tol elementwise.
func Equalish(a, b *Dense, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}
