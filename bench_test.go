// Benchmarks regenerating the paper's evaluation (§4), one family per table
// or figure. Each testing.B benchmark measures a single (algorithm, system)
// cell; cmd/flashr-bench runs the same experiments and prints the full
// tables (see DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
// results).
//
// Scale with FLASHR_BENCH_N (rows, default 50 000) — the paper's datasets
// are billions of rows; the shapes, not the absolute numbers, are the
// reproduction target.
package flashr_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	flashr "repro"
	"repro/internal/cluster"
	"repro/internal/dense"
	"repro/internal/eager"
	"repro/internal/safs"
	"repro/internal/workload"
	"repro/ml"
)

var benchN = func() int64 {
	if v := os.Getenv("FLASHR_BENCH_N"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 50_000
}()

const benchIters = 3 // fixed iterations for iterative algorithms

// --- shared fixtures -------------------------------------------------------

type fixtures struct {
	im, em  *flashr.Session
	ssdDir  string
	criteoX map[*flashr.Session]*flashr.FM
	criteoY map[*flashr.Session]*flashr.FM
	pgX     map[*flashr.Session]*flashr.FM
	denseX  *dense.Dense
	denseY  *dense.Dense
	densePG *dense.Dense
}

var (
	fxOnce sync.Once
	fx     *fixtures
	fxErr  error
)

func getFixtures(b *testing.B) *fixtures {
	b.Helper()
	fxOnce.Do(func() {
		f := &fixtures{
			criteoX: map[*flashr.Session]*flashr.FM{},
			criteoY: map[*flashr.Session]*flashr.FM{},
			pgX:     map[*flashr.Session]*flashr.FM{},
		}
		f.im, fxErr = flashr.NewSession(flashr.Options{})
		if fxErr != nil {
			return
		}
		f.ssdDir, fxErr = os.MkdirTemp("", "flashr-bench-")
		if fxErr != nil {
			return
		}
		f.em, fxErr = newEMSession(f.ssdDir, flashr.FuseCache)
		if fxErr != nil {
			return
		}
		for _, s := range []*flashr.Session{f.im, f.em} {
			x, y, err := workload.Criteo(s, benchN, 42)
			if err != nil {
				fxErr = err
				return
			}
			f.criteoX[s], f.criteoY[s] = x, y
			pg, err := workload.PageGraph(s, benchN, 42)
			if err != nil {
				fxErr = err
				return
			}
			f.pgX[s] = pg
		}
		if f.denseX, fxErr = f.criteoX[f.im].AsDense(); fxErr != nil {
			return
		}
		if f.denseY, fxErr = f.criteoY[f.im].AsDense(); fxErr != nil {
			return
		}
		if f.densePG, fxErr = f.pgX[f.im].AsDense(); fxErr != nil {
			return
		}
		fx = f
	})
	if fxErr != nil {
		b.Fatalf("fixtures: %v", fxErr)
	}
	return fx
}

func newEMSession(root string, fuse flashr.FuseLevel) (*flashr.Session, error) {
	sub, err := os.MkdirTemp(root, "em-")
	if err != nil {
		return nil, err
	}
	return flashr.NewSession(flashr.Options{
		EM: true, SSDDirs: safs.DriveDirs(sub, 4), ReadMBps: 1200, WriteMBps: 1000, Fuse: fuse,
	})
}

func initCenters(p, k int) *dense.Dense {
	c := dense.New(k, p)
	for g := 0; g < k; g++ {
		for j := 0; j < p; j++ {
			c.Set(g, j, float64(g)*0.5-float64(k)/4+0.1*float64(j%3))
		}
	}
	return c
}

// runAlgo executes one benchmark algorithm on a FlashR session.
func runAlgo(b *testing.B, f *fixtures, s *flashr.Session, algo string) {
	b.Helper()
	var err error
	switch algo {
	case "correlation":
		_, err = ml.Correlation(f.criteoX[s])
	case "pca":
		_, err = ml.PCA(f.criteoX[s], 8)
	case "naivebayes":
		_, err = ml.NaiveBayes(s, f.criteoX[s], f.criteoY[s], 2)
	case "logistic":
		_, err = ml.LogisticRegressionLBFGS(s, f.criteoX[s], f.criteoY[s],
			ml.LogisticOptions{MaxIter: benchIters, Tol: 1e-12})
	case "kmeans":
		var res *ml.KMeansResult
		res, err = ml.KMeans(s, f.pgX[s], 10,
			ml.KMeansOptions{MaxIter: benchIters, InitCenters: initCenters(workload.PageGraphCols, 10)})
		if err == nil {
			res.Assign.Free()
		}
	case "gmm":
		_, err = ml.GMM(s, f.pgX[s], 4,
			ml.GMMOptions{MaxIter: benchIters, Tol: 1e-12, InitMeans: initCenters(workload.PageGraphCols, 4)})
	default:
		b.Fatalf("unknown algo %s", algo)
	}
	if err != nil {
		b.Fatal(err)
	}
}

// runEagerAlgo executes the identical algorithm on an eager baseline.
func runEagerAlgo(b *testing.B, f *fixtures, e *eager.Engine, algo string) {
	b.Helper()
	switch algo {
	case "correlation":
		e.Correlation(f.denseX)
	case "pca":
		e.PCA(f.denseX, 8)
	case "naivebayes":
		e.NaiveBayes(f.denseX, f.denseY, 2)
	case "logistic":
		e.Logistic(f.denseX, f.denseY, benchIters, 1e-12)
	case "kmeans":
		e.KMeans(f.densePG, initCenters(workload.PageGraphCols, 10), benchIters)
	case "gmm":
		e.GMM(f.densePG, initCenters(workload.PageGraphCols, 4), benchIters, 1e-12)
	default:
		b.Fatalf("unknown algo %s", algo)
	}
}

// --- Figure 7a: FlashR vs H2O-like vs MLlib-like ---------------------------

func BenchmarkFig7a(b *testing.B) {
	f := getFixtures(b)
	for _, algo := range []string{"correlation", "pca", "naivebayes", "logistic", "kmeans", "gmm"} {
		b.Run(algo+"/FlashR-IM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, f, f.im, algo)
			}
		})
		b.Run(algo+"/FlashR-EM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, f, f.em, algo)
			}
		})
		b.Run(algo+"/H2O-like", func(b *testing.B) {
			e := eager.New(eager.StyleH2O, 0)
			for i := 0; i < b.N; i++ {
				runEagerAlgo(b, f, e, algo)
			}
		})
		b.Run(algo+"/MLlib-like", func(b *testing.B) {
			e := eager.New(eager.StyleMLlib, 0)
			for i := 0; i < b.N; i++ {
				runEagerAlgo(b, f, e, algo)
			}
		})
	}
}

// --- Figure 7b: one machine vs a simulated 4-node cluster ------------------

func BenchmarkFig7bCluster(b *testing.B) {
	f := getFixtures(b)
	cfg := cluster.DefaultConfig()
	for _, algo := range []string{"correlation", "naivebayes", "kmeans"} {
		b.Run(algo+"/MLlib-cluster", func(b *testing.B) {
			e := eager.New(eager.StyleMLlib, 0)
			var sim float64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cfg, e, func() { runEagerAlgo(b, f, e, algo) })
				sim += res.Total.Seconds()
			}
			b.ReportMetric(sim/float64(b.N), "sim-sec/op")
		})
	}
}

// --- Figure 8: FlashR vs Revolution-R-Open-like on MASS workloads ----------

func BenchmarkFig8(b *testing.B) {
	n := benchN / 5
	if n < 2048 {
		n = 2048
	}
	const p = 256
	im, err := flashr.NewSession(flashr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	x, err := im.Rnorm(n, p, 0, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	y := flashr.Mod(flashr.Round(flashr.Mul(flashr.GetCol(x, 0), 100.0)), 2.0)
	if err := y.MaterializeCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	xd, err := x.AsDense()
	if err != nil {
		b.Fatal(err)
	}
	yd, err := y.AsDense()
	if err != nil {
		b.Fatal(err)
	}
	mu := make([]float64, p)
	sigma := dense.Identity(p)

	b.Run("crossprod/FlashR-IM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := flashr.CrossProd(x).AsDense(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("crossprod/ROpen-like", func(b *testing.B) {
		e := eager.New(eager.StyleROpen, 0)
		for i := 0; i < b.N; i++ {
			e.CrossProd(xd, xd)
		}
	})
	b.Run("mvrnorm/FlashR-IM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := ml.Mvrnorm(im, n, mu, sigma, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if err := out.MaterializeCtx(context.Background()); err != nil {
				b.Fatal(err)
			}
			out.Free()
		}
	})
	b.Run("mvrnorm/ROpen-like", func(b *testing.B) {
		e := eager.New(eager.StyleROpen, 0)
		for i := 0; i < b.N; i++ {
			e.Mvrnorm(xd, mu, sigma)
		}
	})
	b.Run("lda/FlashR-IM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LDA(im, x, y, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lda/ROpen-like", func(b *testing.B) {
		e := eager.New(eager.StyleROpen, 0)
		for i := 0; i < b.N; i++ {
			e.LDA(xd, yd, 2)
		}
	})
}

// --- Figure 9: EM vs IM as p (or k) grows -----------------------------------

func BenchmarkFig9CorrelationSweepP(b *testing.B) {
	n := benchN / 2
	if n < 4096 {
		n = 4096
	}
	root, err := os.MkdirTemp("", "fig9-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(root)
	for _, p := range []int{8, 32, 128} {
		for _, sys := range []string{"IM", "EM"} {
			b.Run(fmt.Sprintf("p=%d/%s", p, sys), func(b *testing.B) {
				var s *flashr.Session
				var err error
				if sys == "IM" {
					s, err = flashr.NewSession(flashr.Options{})
				} else {
					s, err = newEMSession(root, flashr.FuseCache)
				}
				if err != nil {
					b.Fatal(err)
				}
				x, _, err := workload.GaussianBlobs(s, n, p, 2, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ml.Correlation(x); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				x.Free()
			})
		}
	}
}

func BenchmarkFig9KMeansSweepK(b *testing.B) {
	f := getFixtures(b)
	for _, k := range []int{2, 8, 32} {
		for _, sys := range []string{"IM", "EM"} {
			b.Run(fmt.Sprintf("k=%d/%s", k, sys), func(b *testing.B) {
				s := f.im
				if sys == "EM" {
					s = f.em
				}
				init := initCenters(workload.PageGraphCols, k)
				for i := 0; i < b.N; i++ {
					res, err := ml.KMeans(s, f.pgX[s], k,
						ml.KMeansOptions{MaxIter: benchIters, InitCenters: init})
					if err != nil {
						b.Fatal(err)
					}
					res.Assign.Free()
				}
			})
		}
	}
}

// --- Figure 10: fusion ablation on SSDs -------------------------------------

func BenchmarkFig10Fusion(b *testing.B) {
	n := benchN / 2
	if n < 4096 {
		n = 4096
	}
	root, err := os.MkdirTemp("", "fig10-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(root)
	for _, fuse := range []struct {
		name  string
		level flashr.FuseLevel
	}{
		{"base", flashr.FuseNone},
		{"mem-fuse", flashr.FuseMem},
		{"cache-fuse", flashr.FuseCache},
	} {
		for _, algo := range []string{"correlation", "naivebayes", "kmeans"} {
			b.Run(algo+"/"+fuse.name, func(b *testing.B) {
				s, err := newEMSession(root, fuse.level)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				x, y, err := workload.Criteo(s, n, 42)
				if err != nil {
					b.Fatal(err)
				}
				pg, err := workload.PageGraph(s, n, 42)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch algo {
					case "correlation":
						_, err = ml.Correlation(x)
					case "naivebayes":
						_, err = ml.NaiveBayes(s, x, y, 2)
					case "kmeans":
						var res *ml.KMeansResult
						res, err = ml.KMeans(s, pg, 10,
							ml.KMeansOptions{MaxIter: benchIters, InitCenters: initCenters(workload.PageGraphCols, 10)})
						if err == nil {
							res.Assign.Free()
						}
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				x.Free()
				y.Free()
				pg.Free()
			})
		}
	}
}

// --- Table 6: out-of-core scalability + memory footprint --------------------

func BenchmarkTable6OutOfCore(b *testing.B) {
	f := getFixtures(b)
	for _, algo := range []string{"correlation", "pca", "naivebayes", "kmeans"} {
		b.Run(algo+"/FlashR-EM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, f, f.em, algo)
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
		})
	}
}

// --- Table 4: empirical I/O complexity --------------------------------------

func BenchmarkTable4IOComplexity(b *testing.B) {
	f := getFixtures(b)
	dataBytes := float64(benchN * workload.CriteoCols * 8)
	for _, algo := range []string{"correlation", "naivebayes"} {
		b.Run(algo+"/passes-over-data", func(b *testing.B) {
			before := f.em.FS().Stats().BytesRead
			for i := 0; i < b.N; i++ {
				runAlgo(b, f, f.em, algo)
			}
			read := float64(f.em.FS().Stats().BytesRead-before) / float64(b.N)
			b.ReportMetric(read/dataBytes, "data-passes/op")
		})
	}
}
