package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/numa"
	"repro/internal/safs"
)

// testEngines builds IM and EM engines at every fusion level, all sharing a
// small partition height so even modest matrices span many partitions.
func testEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	const partRows = 256
	fs, err := safs.OpenTempDir(t.TempDir(), 3, 0, 0)
	if err != nil {
		t.Fatalf("safs: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	topo := numa.NewTopology(4, 1<<16)
	engines := map[string]*Engine{}
	for _, em := range []bool{false, true} {
		for _, fuse := range []FuseLevel{FuseNone, FuseMem, FuseCache} {
			name := "im-" + fuse.String()
			if em {
				name = "em-" + fuse.String()
			}
			e, err := NewEngine(Config{
				Workers: 4, Fuse: fuse, Topo: topo, FS: fs, EM: em,
				PartRows: partRows, PcacheBytes: 2048,
			})
			if err != nil {
				t.Fatalf("engine %s: %v", name, err)
			}
			engines[name] = e
		}
	}
	return engines
}

func randDense(rng *rand.Rand, r, c int) *dense.Dense {
	d := dense.New(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func toDense(t *testing.T, e *Engine, m *Mat) *dense.Dense {
	t.Helper()
	d, err := e.ToDense(m)
	if err != nil {
		t.Fatalf("ToDense: %v", err)
	}
	return d
}

func wantClose(t *testing.T, name string, got, want *dense.Dense, tol float64) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	if d := dense.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("%s: max abs diff %g > %g", name, d, tol)
	}
}

// TestElementwiseChains verifies that a fused chain of sapply/mapply ops
// produces identical results at every fusion level, in memory and on SSDs.
func TestElementwiseChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, p = 2000, 7
	ad := randDense(rng, n, p)
	bd := randDense(rng, n, p)
	// want = sqrt(|a|) * b + (a - 2)
	want := dense.New(n, p)
	for i := range want.Data {
		want.Data[i] = math.Sqrt(math.Abs(ad.Data[i]))*bd.Data[i] + (ad.Data[i] - 2)
	}
	for name, e := range testEngines(t) {
		a, err := e.FromDense(ad)
		if err != nil {
			t.Fatalf("%s FromDense: %v", name, err)
		}
		b, err := e.FromDense(bd)
		if err != nil {
			t.Fatalf("%s FromDense: %v", name, err)
		}
		expr := Mapply(
			Mapply(Sapply(Sapply(a, UnaryAbs), UnarySqrt), b, BinMul),
			MapplyScalar(a, 2, BinSub, false),
			BinAdd,
		)
		got := toDense(t, e, expr)
		wantClose(t, name+"/chain", got, want, 1e-12)
	}
}

// TestAggSinks checks agg, agg.col, and per-row agg against naive folds.
func TestAggSinks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, p = 1500, 5
	ad := randDense(rng, n, p)
	var wantSum float64
	wantColSums := make([]float64, p)
	wantRowSums := dense.New(n, 1)
	wantMax := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			v := ad.At(i, j)
			wantSum += v
			wantColSums[j] += v
			wantRowSums.Data[i] += v
			if v > wantMax {
				wantMax = v
			}
		}
	}
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(ad)
		sum := Agg(a, AggSum)
		colSums := AggCol(a, AggSum)
		maxS := Agg(a, AggMax)
		rows := AggRow(a, AggSum)
		if err := e.Materialize([]*Mat{rows}, []*Sink{sum, colSums, maxS}); err != nil {
			t.Fatalf("%s materialize: %v", name, err)
		}
		if got := sum.Result().At(0, 0); math.Abs(got-wantSum) > 1e-9 {
			t.Fatalf("%s sum=%g want %g", name, got, wantSum)
		}
		if got := maxS.Result().At(0, 0); got != wantMax {
			t.Fatalf("%s max=%g want %g", name, got, wantMax)
		}
		for j := 0; j < p; j++ {
			if got := colSums.Result().At(0, j); math.Abs(got-wantColSums[j]) > 1e-9 {
				t.Fatalf("%s colsum[%d]=%g want %g", name, j, got, wantColSums[j])
			}
		}
		wantClose(t, name+"/rowsums", toDense(t, e, rows), wantRowSums, 1e-9)
	}
}

// TestGroupByRowAndWhichMin covers the k-means building blocks: argmin per
// row, grouping rows by label, and group counts.
func TestGroupByRowAndWhichMin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, p, k = 1200, 4, 5
	ad := randDense(rng, n, p)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	ld := dense.New(n, 1)
	for i, l := range labels {
		ld.Data[i] = float64(l)
	}
	wantGroup := dense.New(k, p)
	wantCnt := make([]float64, k)
	for i := 0; i < n; i++ {
		g := labels[i]
		wantCnt[g]++
		for j := 0; j < p; j++ {
			wantGroup.Data[g*p+j] += ad.At(i, j)
		}
	}
	wantArg := dense.New(n, 1)
	for i := 0; i < n; i++ {
		best, bv := 0, ad.At(i, 0)
		for j := 1; j < p; j++ {
			if ad.At(i, j) < bv {
				bv, best = ad.At(i, j), j
			}
		}
		wantArg.Data[i] = float64(best)
	}
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(ad)
		l, _ := e.FromDense(ld)
		grp := GroupByRow(a, l, k, AggSum)
		cnt := GroupByRow(NewConst(n, 1, 1), l, k, AggSum)
		arg := WhichMinRow(a)
		if err := e.Materialize([]*Mat{arg}, []*Sink{grp, cnt}); err != nil {
			t.Fatalf("%s materialize: %v", name, err)
		}
		wantClose(t, name+"/groupby", grp.Result(), wantGroup, 1e-9)
		for g := 0; g < k; g++ {
			if got := cnt.Result().At(g, 0); got != wantCnt[g] {
				t.Fatalf("%s count[%d]=%g want %g", name, g, got, wantCnt[g])
			}
		}
		wantClose(t, name+"/whichmin", toDense(t, e, arg), wantArg, 0)
	}
}

// TestCrossProdAndInnerProd checks the BLAS and generalized kernels against
// naive matrix multiplication.
func TestCrossProdAndInnerProd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, p, m = 900, 6, 3
	ad := randDense(rng, n, p)
	bd := randDense(rng, n, m)
	small := randDense(rng, p, m)
	wantCross := dense.CrossProd(ad, bd)
	wantIP := dense.MatMul(ad, small)
	// Euclidean inner product: D[i,j] = sum_k (a[i,k]-c[k,j])^2.
	wantEuc := dense.New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for kk := 0; kk < p; kk++ {
				d := ad.At(i, kk) - small.At(kk, j)
				s += d * d
			}
			wantEuc.Set(i, j, s)
		}
	}
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(ad)
		b, _ := e.FromDense(bd)
		cross := CrossProd(a, b, nil, nil)
		crossGen := CrossProd(a, b, BinMul, BinAdd)
		ip := InnerProd(a, small, nil, nil)
		euc := InnerProd(a, small, BinEuclid, BinAdd)
		if err := e.Materialize([]*Mat{ip, euc}, []*Sink{cross, crossGen}); err != nil {
			t.Fatalf("%s materialize: %v", name, err)
		}
		wantClose(t, name+"/crossprod", cross.Result(), wantCross, 1e-9)
		wantClose(t, name+"/crossprod-gen", crossGen.Result(), wantCross, 1e-9)
		wantClose(t, name+"/innerprod", toDense(t, e, ip), wantIP, 1e-9)
		wantClose(t, name+"/euclid", toDense(t, e, euc), wantEuc, 1e-9)
	}
}

// TestCumulative checks cum.col (cross-partition single-scan prefix) and
// cum.row against serial prefixes.
func TestCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, p = 1700, 3
	ad := randDense(rng, n, p)
	wantCol := dense.New(n, p)
	run := make([]float64, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			run[j] += ad.At(i, j)
			wantCol.Set(i, j, run[j])
		}
	}
	wantRow := dense.New(n, p)
	for i := 0; i < n; i++ {
		var r float64
		for j := 0; j < p; j++ {
			r += ad.At(i, j)
			wantRow.Set(i, j, r)
		}
	}
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(ad)
		cc := CumCol(a, AggSum)
		cr := CumRow(a, AggSum)
		if err := e.Materialize([]*Mat{cc, cr}, nil); err != nil {
			t.Fatalf("%s materialize: %v", name, err)
		}
		wantClose(t, name+"/cumcol", toDense(t, e, cc), wantCol, 1e-9)
		wantClose(t, name+"/cumrow", toDense(t, e, cr), wantRow, 1e-9)
	}
}

// TestCumKernelsMatchStep runs cum.col and cum.row for every aggregate over
// four partitions (the last ragged) at PcacheBytes 4 KiB, so the cum.col
// carry crosses chunks inside a partition as well as partitions, on inputs
// holding NaN, ±Inf and −0. The outputs and the exit carry must have the bits
// of a plain loop over Step.
func TestCumKernelsMatchStep(t *testing.T) {
	const partRows, nrow = 256, 3*256 + 77
	pool := kernelPool()
	topo := numa.NewTopology(2, 1<<16)
	e, err := NewEngine(Config{Workers: 3, Fuse: FuseCache, Topo: topo, PartRows: partRows, PcacheBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, nc := range []int{3, 40} {
		in := make([]float64, nrow*nc)
		for i := range in {
			if rng.Intn(3) == 0 {
				in[i] = pool[rng.Intn(len(pool))]
			} else {
				in[i] = 1 + rng.NormFloat64()/64 // keeps prod finite for a while
			}
		}
		leaf, err := matrix.NewMemStore(topo, nrow, nc, partRows)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < leaf.NumParts(); p++ {
			r0 := p * partRows
			r1 := min(r0+partRows, nrow)
			if err := leaf.WritePart(p, in[r0*nc:r1*nc]); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names(aggByName) {
			f := aggByName[name]
			prog := &Program{
				Nodes: []ProgramNode{
					{Op: uint8(opLeaf), A: -1, B: -1, NCol: int32(nc)},
					{Op: uint8(opCumCol), A: 0, B: -1, NCol: int32(nc), Agg: name},
					{Op: uint8(opCumRow), A: 0, B: -1, NCol: int32(nc), Agg: name},
				},
				Talls: []int32{1, 2},
				Cums:  []int32{1},
			}
			if err := prog.Resolve(); err != nil {
				t.Fatal(err)
			}
			res, _, err := e.ExecProgram(context.Background(), prog, nrow, []matrix.Store{leaf, nil, nil}, nil, PassOptions{})
			if err != nil {
				t.Fatalf("%s nc=%d: %v", name, nc, err)
			}
			carry := make([]float64, nc)
			for j := range carry {
				carry[j] = f.Init
			}
			wantCol, wantRow := make([]float64, len(in)), make([]float64, len(in))
			for r := 0; r < nrow; r++ {
				acc := f.Init
				for j := 0; j < nc; j++ {
					carry[j] = f.Step(carry[j], in[r*nc+j])
					wantCol[r*nc+j] = carry[j]
					acc = f.Step(acc, in[r*nc+j])
					wantRow[r*nc+j] = acc
				}
			}
			what := fmt.Sprintf("%s nc=%d", name, nc)
			sameBitsOrNaN(t, what+" cum.col", storeData(t, res.Talls[0]), wantCol)
			sameBitsOrNaN(t, what+" cum.row", storeData(t, res.Talls[1]), wantRow)
			sameBitsOrNaN(t, what+" exit carry", res.Carries[1], carry)
		}
	}
}

// sameBitsOrNaN is sameBits with any NaN matching any NaN. An x86 product
// or sum of two NaNs keeps one operand's payload, and Go may commute the
// operands (the race detector's build of a loop does), so which payload a
// NaN carries is not the kernel's to fix.
func sameBitsOrNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	got = append([]float64(nil), got...)
	for i := range got {
		if i < len(want) && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			got[i] = want[i]
		}
	}
	sameBits(t, what, got, want)
}

// storeData reads every partition of st into one row-major slice.
func storeData(t *testing.T, st matrix.Store) []float64 {
	t.Helper()
	out := make([]float64, st.NRow()*int64(st.NCol()))
	for p := 0; p < st.NumParts(); p++ {
		r0 := int64(p) * int64(st.PartRows())
		r1 := min(r0+int64(st.PartRows()), st.NRow())
		if err := st.ReadPart(p, out[r0*int64(st.NCol()):r1*int64(st.NCol())]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestColsAndConst covers column-subset views, constants, row-vector and
// column-vector broadcasts.
func TestColsAndConst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, p = 1100, 6
	ad := randDense(rng, n, p)
	cols := []int{4, 0, 2}
	sweepV := []float64{1, -2, 3}
	vd := randDense(rng, n, 1)
	want := dense.New(n, len(cols))
	for i := 0; i < n; i++ {
		for j, c := range cols {
			want.Set(i, j, (ad.At(i, c)-sweepV[j])*vd.At(i, 0)+5)
		}
	}
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(ad)
		v, _ := e.FromDense(vd)
		sub := Cols(a, cols)
		expr := MapplyScalar(
			MapplyColVec(MapplyRowVec(sub, sweepV, BinSub, false), v, BinMul, false),
			5, BinAdd, false)
		wantClose(t, name+"/colsexpr", toDense(t, e, expr), want, 1e-12)
	}
}

// TestTableSink checks the data-dependent table/unique sink.
func TestTableSink(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 3000
	vals := dense.New(n, 1)
	wantCounts := map[float64]int64{}
	for i := 0; i < n; i++ {
		v := float64(rng.Intn(6))
		vals.Data[i] = v
		wantCounts[v]++
	}
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(vals)
		tab := Table(a)
		if err := e.Materialize(nil, []*Sink{tab}); err != nil {
			t.Fatalf("%s materialize: %v", name, err)
		}
		keys, counts := tab.TableResult()
		if len(keys) != len(wantCounts) {
			t.Fatalf("%s table has %d keys, want %d", name, len(keys), len(wantCounts))
		}
		for i, k := range keys {
			if counts[i] != wantCounts[k] {
				t.Fatalf("%s table[%g]=%d want %d", name, k, counts[i], wantCounts[k])
			}
		}
	}
}

// TestSetCache verifies that cache-flagged interior nodes materialize
// alongside the DAG and short-circuit later evaluations.
func TestSetCache(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, p = 1300, 4
	ad := randDense(rng, n, p)
	for name, e := range testEngines(t) {
		a, _ := e.FromDense(ad)
		mid := Sapply(a, UnarySquare)
		mid.SetCache(false)
		total := Agg(mid, AggSum)
		if err := e.Materialize(nil, []*Sink{total}); err != nil {
			t.Fatalf("%s materialize: %v", name, err)
		}
		if !mid.Materialized() {
			t.Fatalf("%s: cached node not materialized", name)
		}
		// Reuse the cached node; its store must be readable directly.
		again := Agg(mid, AggSum)
		if err := e.Materialize(nil, []*Sink{again}); err != nil {
			t.Fatalf("%s rematerialize: %v", name, err)
		}
		if a, b := total.Result().At(0, 0), again.Result().At(0, 0); math.Abs(a-b) > 1e-9 {
			t.Fatalf("%s cached recompute %g != %g", name, b, a)
		}
	}
}

// TestNUMAPolicy asserts the placement accounting: partition i lives on node
// i mod nodes for every matrix, and each leaf-partition read counts as local
// exactly when the reading worker is bound to that node. One worker on a
// 2-node topology therefore reads the even partitions locally and the odd
// ones remotely. (Which of several workers claims a partition is dynamic, so
// the split is only asserted for a single worker.)
func TestNUMAPolicy(t *testing.T) {
	topo := numa.NewTopology(2, 1<<14)
	e, err := NewEngine(Config{Workers: 1, Fuse: FuseCache, Topo: topo, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	a, _ := e.FromDense(randDense(rng, 4096, 3)) // 16 partitions
	local0, remote0 := topo.Stats()
	s := Agg(Sapply(a, UnarySquare), AggSum)
	if err := e.Materialize(nil, []*Sink{s}); err != nil {
		t.Fatal(err)
	}
	if local, remote := topo.Stats(); local-local0 != 8 || remote-remote0 != 8 {
		t.Fatalf("NUMA accounting: %d local, %d remote; want 8 and 8", local, remote)
	}
}

// TestDifferentPartitionDims ensures mixing partition dimensions in one DAG
// is rejected.
func TestDifferentPartitionDims(t *testing.T) {
	e, err := NewEngine(Config{Workers: 1, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	a, _ := e.FromDense(randDense(rng, 512, 2))
	b, _ := e.FromDense(randDense(rng, 600, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("mapply across partition dimensions did not panic")
		}
	}()
	_ = Mapply(a, b, BinAdd)
}

// TestGenerateDeterminism checks that Generate fills partitions
// deterministically regardless of scheduling.
func TestGenerateDeterminism(t *testing.T) {
	e, err := NewEngine(Config{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *dense.Dense {
		m, err := e.Generate(2000, 3, matrix.F64, func(start int64, rows int, buf []float64) {
			for r := 0; r < rows; r++ {
				for c := 0; c < 3; c++ {
					buf[r*3+c] = float64(start+int64(r))*10 + float64(c)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return toDense(t, e, m)
	}
	if d := dense.MaxAbsDiff(gen(), gen()); d != 0 {
		t.Fatalf("generate nondeterministic: %g", d)
	}
}
