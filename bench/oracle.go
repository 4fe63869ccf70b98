package main

import (
	"fmt"
	"math"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/linalg"
	"repro/ml/optim"
)

// The oracle: every step is run on a small twin of the data (same generator,
// seed and parameters) and compared with a reference written as plain loops
// over a dense copy. The references share no code with the engine's fused
// passes; they reuse only the dense drivers (L-BFGS, Cholesky) that the ml
// package itself runs outside the engine.

// oracleTol is the relative tolerance, taken against the largest magnitude
// in the reference vector: the engine sums per partition and per chunk, the
// loops sum row by row.
const oracleTol = 1e-9

// denseData is the in-memory copy of a twin dataset.
type denseData struct {
	x, y, g *dense.Dense
}

func gather(d *dataset) (*denseData, error) {
	out := &denseData{}
	for _, m := range []struct {
		src *flashr.FM
		dst **dense.Dense
	}{{d.x, &out.x}, {d.y, &out.y}, {d.g, &out.g}} {
		if m.src == nil {
			continue
		}
		dd, err := m.src.AsDense()
		if err != nil {
			return nil, err
		}
		*m.dst = dd
	}
	return out, nil
}

// compareValues checks got against want name by name.
func compareValues(got, want values) error {
	for _, w := range want {
		g := got.get(w.name)
		if len(g) != len(w.v) {
			return fmt.Errorf("%s: engine returned %d values, reference %d", w.name, len(g), len(w.v))
		}
		var scale float64
		for _, v := range w.v {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range w.v {
			if diff := math.Abs(g[i] - w.v[i]); !(diff <= oracleTol*scale) {
				return fmt.Errorf("%s[%d]: engine %.17g, reference %.17g (rel %.3g)", w.name, i, g[i], w.v[i], diff/scale)
			}
		}
	}
	return nil
}

func refLogistic(x, y *dense.Dense, l2 float64, maxIter int) values {
	n, p := x.R, x.C
	obj := optim.ObjectiveFunc(func(w []float64) (float64, []float64, error) {
		var loss float64
		g := make([]float64, p)
		for i := 0; i < n; i++ {
			row := x.Row(i)
			var z float64
			for j, v := range row {
				z += v * w[j]
			}
			loss += math.Max(z, 0) + math.Log1p(math.Exp(-math.Abs(z))) - y.Data[i]*z
			r := 1/(1+math.Exp(-z)) - y.Data[i]
			for j, v := range row {
				g[j] += v * r
			}
		}
		f := loss / float64(n)
		for j := range g {
			g[j] = g[j]/float64(n) + l2*w[j]
			f += 0.5 * l2 * w[j] * w[j]
		}
		return f, g, nil
	})
	res, err := optim.Minimize(obj, make([]float64, p), optim.Options{MaxIter: maxIter, TolObj: 1e-12})
	if err != nil {
		return values{{"error", nil}}
	}
	return values{{"logloss", []float64{res.F}}, {"w", res.W}}
}

// nearest returns the index of the centre closest to row and the squared
// distance to it (first minimum wins, like which.min).
func nearest(row []float64, centers *dense.Dense) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < centers.R; c++ {
		var d float64
		for j, v := range row {
			t := v - centers.At(c, j)
			d += t * t
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

func refKMeans(x, init *dense.Dense, maxIter int) values {
	k, p := init.R, init.C
	centers := init.Clone()
	prev := make([]int, x.R)
	var sizes []float64
	for iter := 0; iter < maxIter; iter++ {
		sizes = make([]float64, k)
		sums := dense.New(k, p)
		moves := 0
		for i := 0; i < x.R; i++ {
			c, _ := nearest(x.Row(i), centers)
			if iter > 0 && c != prev[i] {
				moves++
			}
			prev[i] = c
			sizes[c]++
			for j, v := range x.Row(i) {
				sums.Data[c*p+j] += v
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				centers.Set(c, j, sums.At(c, j)/sizes[c])
			}
		}
		if iter > 0 && moves == 0 {
			break
		}
	}
	var obj float64
	for i := 0; i < x.R; i++ {
		_, d := nearest(x.Row(i), centers)
		obj += d
	}
	return values{{"objective", []float64{obj}}, {"sizes", sizes}, {"centers", centers.Data}}
}

// ridgeCov is the diagonal loading ml.GMM applies to every covariance.
func ridgeCov(c *dense.Dense) *dense.Dense {
	var tr float64
	for i := 0; i < c.R; i++ {
		tr += c.At(i, i)
	}
	eps := 1e-6*tr/float64(c.R) + 1e-9
	for i := 0; i < c.R; i++ {
		c.Set(i, i, c.At(i, i)+eps)
	}
	return c
}

// refGMM is one EM iteration from the given means, equal weights and the
// global covariance — what ml.GMM does with MaxIter 1.
func refGMM(x, init *dense.Dense) values {
	n, p, k := x.R, x.C, init.R
	mu0 := make([]float64, p)
	gram := dense.New(p, p)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for a, va := range row {
			mu0[a] += va
			for b, vb := range row {
				gram.Data[a*p+b] += va * vb
			}
		}
	}
	global := dense.New(p, p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			global.Set(a, b, gram.At(a, b)/float64(n)-(mu0[a]/float64(n))*(mu0[b]/float64(n)))
		}
	}
	global = ridgeCov(global)
	l, err := linalg.Cholesky(global)
	if err != nil {
		return values{{"error", nil}}
	}
	prec := linalg.SolveChol(l, dense.Identity(p))
	logConst := math.Log(1/float64(k)) - 0.5*(float64(p)*math.Log(2*math.Pi)+linalg.LogDetChol(l))

	resp := dense.New(n, k)
	var ll float64
	dev := make([]float64, p)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		rowMax := math.Inf(-1)
		for c := 0; c < k; c++ {
			for j := range dev {
				dev[j] = row[j] - init.At(c, j)
			}
			var mahal float64
			for a := 0; a < p; a++ {
				var t float64
				for b := 0; b < p; b++ {
					t += prec.At(a, b) * dev[b]
				}
				mahal += dev[a] * t
			}
			ld := -0.5*mahal + logConst
			resp.Set(i, c, ld)
			rowMax = math.Max(rowMax, ld)
		}
		var sumExp float64
		for c := 0; c < k; c++ {
			e := math.Exp(resp.At(i, c) - rowMax)
			resp.Set(i, c, e)
			sumExp += e
		}
		for c := 0; c < k; c++ {
			resp.Set(i, c, resp.At(i, c)/sumExp)
		}
		ll += rowMax + math.Log(sumExp)
	}
	weights := make([]float64, k)
	means := dense.New(k, p)
	out := values{{"loglike", []float64{ll / float64(n)}}, {"weights", weights}, {"means", means.Data}}
	for c := 0; c < k; c++ {
		var nc float64
		wsum := make([]float64, p)
		wgram := dense.New(p, p)
		for i := 0; i < n; i++ {
			r := resp.At(i, c)
			nc += r
			row := x.Row(i)
			for a, va := range row {
				wsum[a] += r * va
				for b, vb := range row {
					wgram.Data[a*p+b] += va * (r * vb)
				}
			}
		}
		w := math.Max(nc, 1e-10)
		weights[c] = w / float64(n)
		for j := 0; j < p; j++ {
			means.Set(c, j, wsum[j]/w)
		}
		cov := dense.New(p, p)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				cov.Set(a, b, wgram.At(a, b)/w-means.At(c, a)*means.At(c, b))
			}
		}
		out = append(out, named{fmt.Sprintf("cov%d", c), ridgeCov(cov).Data})
	}
	return out
}

// mulRows is the plain-loop x·b for row-major x (n×p) and b (p×m).
func mulRows(x, b *dense.Dense) *dense.Dense {
	out := dense.New(x.R, b.C)
	for i := 0; i < x.R; i++ {
		orow := out.Row(i)
		for l, xv := range x.Row(i) {
			for j, bv := range b.Row(l) {
				orow[j] += xv * bv
			}
		}
	}
	return out
}

// crossRows is the plain-loop xᵀ·y.
func crossRows(x, y *dense.Dense) *dense.Dense {
	out := dense.New(x.C, y.C)
	for i := 0; i < x.R; i++ {
		yrow := y.Row(i)
		for a, xv := range x.Row(i) {
			orow := out.Row(a)
			for b, yv := range yrow {
				orow[b] += xv * yv
			}
		}
	}
	return out
}

func refGemmTall(x, b *dense.Dense) values {
	return values{{"colsums", mulRows(x, b).ColSums()}}
}

func refSyrk(x *dense.Dense, v []float64) values {
	scaled := dense.New(x.R, x.C)
	for i := 0; i < x.R; i++ {
		for j, xv := range x.Row(i) {
			scaled.Data[i*x.C+j] = xv * v[j]
		}
	}
	return values{{"gram", crossRows(scaled, scaled).Data}}
}

func refGemmTA(x, c *dense.Dense) values {
	return values{{"xtxc", crossRows(x, mulRows(x, c)).Data}}
}

func refThresholds(x *dense.Dense, cuts []float64) values {
	var out values
	for t, c := range cuts {
		cnt := make([]float64, x.C)
		for i := 0; i < x.R; i++ {
			for j, v := range x.Row(i) {
				if v > c {
					cnt[j]++
				}
			}
		}
		out = append(out, named{fmt.Sprintf("gt%d", t), cnt})
	}
	return out
}

func refMapSave(x *dense.Dense, a, b float64) values {
	sums := make([]float64, x.C)
	for i := 0; i < x.R; i++ {
		for j, v := range x.Row(i) {
			sums[j] += 1 / (1 + math.Exp(-(v*a + b)))
		}
	}
	half := make([]float64, len(sums))
	for j, s := range sums {
		half[j] = s / 2
	}
	return values{{"fused", sums}, {"readback_half", half}}
}

func refCumsum(x *dense.Dense, a float64) values {
	run := make([]float64, x.C)
	for i := 0; i < x.R; i++ {
		for j, v := range x.Row(i) {
			run[j] += v * a
		}
	}
	return values{{"last_row", run}, {"total", run}}
}
