package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/numa"
	"repro/internal/safs"
)

// refEval is a tiny reference interpreter for random GenOp expressions; the
// property tests below build random DAGs and check that every fusion level
// and worker count computes exactly what the reference computes.
type exprCase struct {
	build func(a, b *Mat) *Mat
	ref   func(a, b *dense.Dense) *dense.Dense
	name  string
}

func exprCases() []exprCase {
	return []exprCase{
		{
			name:  "sapply-chain",
			build: func(a, _ *Mat) *Mat { return Sapply(Sapply(a, UnaryAbs), UnarySqrt) },
			ref: func(a, _ *dense.Dense) *dense.Dense {
				return a.Apply(func(v float64) float64 { return math.Sqrt(math.Abs(v)) })
			},
		},
		{
			name:  "mapply-mix",
			build: func(a, b *Mat) *Mat { return Mapply(Mapply(a, b, BinMul), a, BinAdd) },
			ref: func(a, b *dense.Dense) *dense.Dense {
				out := dense.New(a.R, a.C)
				for i, v := range a.Data {
					out.Data[i] = float64(v*b.Data[i]) + v
				}
				return out
			},
		},
		{
			name: "scalar-and-compare",
			build: func(a, b *Mat) *Mat {
				return Mapply(MapplyScalar(a, 0.3, BinGt, false), Sapply(b, UnarySign), BinPmax)
			},
			ref: func(a, b *dense.Dense) *dense.Dense {
				out := dense.New(a.R, a.C)
				for i := range out.Data {
					l := 0.0
					if a.Data[i] > 0.3 {
						l = 1
					}
					s := 0.0
					if b.Data[i] > 0 {
						s = 1
					} else if b.Data[i] < 0 {
						s = -1
					}
					out.Data[i] = math.Max(l, s)
				}
				return out
			},
		},
		{
			name:  "cumcol-of-mapply",
			build: func(a, b *Mat) *Mat { return CumCol(Mapply(a, b, BinAdd), AggSum) },
			ref: func(a, b *dense.Dense) *dense.Dense {
				sum := dense.Add(a, b)
				out := dense.New(a.R, a.C)
				run := make([]float64, a.C)
				for i := 0; i < a.R; i++ {
					for j := 0; j < a.C; j++ {
						run[j] += sum.At(i, j)
						out.Set(i, j, run[j])
					}
				}
				return out
			},
		},
		{
			name:  "aggrow-of-cbind",
			build: func(a, b *Mat) *Mat { return AggRow(Cbind2(a, b), AggMax) },
			ref: func(a, b *dense.Dense) *dense.Dense {
				out := dense.New(a.R, 1)
				for i := 0; i < a.R; i++ {
					m := math.Inf(-1)
					for _, v := range a.Row(i) {
						m = math.Max(m, v)
					}
					for _, v := range b.Row(i) {
						m = math.Max(m, v)
					}
					out.Data[i] = m
				}
				return out
			},
		},
	}
}

// TestRandomDAGEquivalence: random shapes, random data, every fusion level,
// random worker counts — results must match the reference bit-for-bit (the
// expressions avoid reassociation).
func TestRandomDAGEquivalence(t *testing.T) {
	cases := exprCases()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(100 + rng.Intn(3000))
		p := 1 + rng.Intn(6)
		ad := dense.New(int(n), p)
		bd := dense.New(int(n), p)
		for i := range ad.Data {
			ad.Data[i] = rng.NormFloat64()
			bd.Data[i] = rng.NormFloat64()
		}
		cse := cases[rng.Intn(len(cases))]
		want := cse.ref(ad, bd)
		for _, fuse := range []FuseLevel{FuseCache, FuseMem, FuseNone} {
			e, err := NewEngine(Config{
				Workers:  1 + rng.Intn(5),
				Fuse:     fuse,
				PartRows: 256,
				Topo:     numa.NewTopology(1+rng.Intn(3), 1<<15),
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := e.FromDense(ad)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.FromDense(bd)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.ToDense(cse.build(a, b))
			if err != nil {
				t.Fatalf("%s/%v: %v", cse.name, fuse, err)
			}
			if !dense.Equalish(got, want, 0) {
				t.Logf("case %s fuse %v seed %d differs", cse.name, fuse, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestSinkEquivalenceUnderWorkers: per-thread partial aggregation and the
// final combine must be insensitive to the worker count.
func TestSinkEquivalenceUnderWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, p, k = 3000, 4, 5
	ad := dense.New(n, p)
	ld := dense.New(n, 1)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	for i := range ld.Data {
		ld.Data[i] = float64(rng.Intn(k))
	}
	var ref *dense.Dense
	for _, workers := range []int{1, 2, 3, 7} {
		e, err := NewEngine(Config{Workers: workers, PartRows: 256})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := e.FromDense(ad)
		l, _ := e.FromDense(ld)
		g := GroupByRow(a, l, k, AggSum)
		if err := e.Materialize(nil, []*Sink{g}); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = g.Result()
			continue
		}
		if !dense.Equalish(g.Result(), ref, 1e-12) {
			t.Fatalf("groupby differs at %d workers", workers)
		}
	}
}

// failingStore wraps a Store and fails reads on one partition.
type failingStore struct {
	matrix.Store
	failPart int
}

func (f *failingStore) ReadPart(i int, dst []float64) error {
	if i == f.failPart {
		return fmt.Errorf("injected read failure on partition %d", i)
	}
	return f.Store.ReadPart(i, dst)
}

// TestLeafReadErrorPropagates: an I/O error inside a worker must fail the
// materialization cleanly (no hang, no partial sink results).
func TestLeafReadErrorPropagates(t *testing.T) {
	e, err := NewEngine(Config{Workers: 3, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ad := dense.New(2000, 3)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	leaf, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewLeaf(&failingStore{Store: leaf.Store(), failPart: 4}, matrix.F64)
	s := Agg(Sapply(bad, UnarySquare), AggSum)
	if err := e.Materialize(nil, []*Sink{s}); err == nil {
		t.Fatal("materialization with failing store succeeded")
	}
	if s.Done() {
		t.Fatal("sink marked done after failed pass")
	}
}

// TestCumErrorDoesNotDeadlock: a failure while cumulative carries are in
// flight must wake waiting workers.
func TestCumErrorDoesNotDeadlock(t *testing.T) {
	e, err := NewEngine(Config{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	ad := dense.New(4000, 2)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	leaf, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewLeaf(&failingStore{Store: leaf.Store(), failPart: 7}, matrix.F64)
	cc := CumCol(bad, AggSum)
	done := make(chan error, 1)
	go func() { done <- e.Materialize([]*Mat{cc}, nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected failure")
		}
	case <-timeoutC():
		t.Fatal("cumulative materialization deadlocked on error")
	}
}

// timeoutC is the generous bound a failure path gets to return; it should
// take milliseconds. It is a timer rather than a goroutine polling
// t.Failed, which would outlive the test and race with the testing
// package's unlocked write of the test's done flag.
func timeoutC() <-chan time.Time { return time.After(10 * time.Second) }

// TestEngineStatsAdvance sanity-checks the counters the ablation benches
// rely on: FuseNone uses more passes than FuseCache for the same DAG.
func TestEngineStatsAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ad := dense.New(2000, 3)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	passes := map[FuseLevel]int64{}
	for _, fuse := range []FuseLevel{FuseCache, FuseNone} {
		e, err := NewEngine(Config{Workers: 2, Fuse: fuse, PartRows: 256})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := e.FromDense(ad)
		s := Agg(Sapply(Sapply(Mapply(a, a, BinMul), UnarySqrt), UnaryExp), AggSum)
		if err := e.Materialize(nil, []*Sink{s}); err != nil {
			t.Fatal(err)
		}
		passes[fuse] = e.TotalMaterializeStats().Passes
	}
	if passes[FuseCache] != 1 {
		t.Fatalf("FuseCache ran %d passes, want one fused pass", passes[FuseCache])
	}
	if passes[FuseNone] <= passes[FuseCache] {
		t.Fatalf("FuseNone passes %d not greater than FuseCache %d", passes[FuseNone], passes[FuseCache])
	}
}

// TestZeroCopyLeafIntegrity: engine passes must not mutate in-memory leaf
// data through the zero-copy read path.
func TestZeroCopyLeafIntegrity(t *testing.T) {
	e, err := NewEngine(Config{Workers: 2, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	ad := dense.New(1500, 3)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	a, _ := e.FromDense(ad)
	before, err := e.ToDense(a)
	if err != nil {
		t.Fatal(err)
	}
	out := Sapply(Mapply(a, a, BinAdd), UnaryExp)
	if _, err := e.ToDense(out); err != nil {
		t.Fatal(err)
	}
	after, err := e.ToDense(a)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(before, after, 0) {
		t.Fatal("leaf data mutated by fused pass")
	}
}

// TestSetCacheToSSD: set.cache(em=TRUE) must place the cached intermediate
// on the SSD array when one is attached, and fall back to memory when not.
func TestSetCacheToSSD(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e, err := NewEngine(Config{Workers: 2, PartRows: 256, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	ad := dense.New(1000, 2)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	a, _ := e.FromDense(ad)
	mid := Sapply(a, UnarySquare)
	mid.SetCache(true)
	s := Agg(mid, AggSum)
	if err := e.Materialize(nil, []*Sink{s}); err != nil {
		t.Fatal(err)
	}
	if got := mid.Store().Kind(); got != "safs" {
		t.Fatalf("cached store kind %q, want safs", got)
	}
	// Without an array, em=TRUE degrades to a memory cache, not a crash.
	e2, err := NewEngine(Config{Workers: 2, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := e2.FromDense(ad)
	mid2 := Sapply(a2, UnarySquare)
	mid2.SetCache(true)
	s2 := Agg(mid2, AggSum)
	if err := e2.Materialize(nil, []*Sink{s2}); err != nil {
		t.Fatal(err)
	}
	if got := mid2.Store().Kind(); got != "mem" {
		t.Fatalf("fallback cache kind %q, want mem", got)
	}
	if s.Result().At(0, 0) != s2.Result().At(0, 0) {
		t.Fatal("results differ between cache placements")
	}
}
