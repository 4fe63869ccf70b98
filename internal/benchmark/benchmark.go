// Package benchmark regenerates every table and figure of the paper's
// evaluation section (§4) at configurable scale. Each experiment returns
// tabular rows so cmd/flashr-bench and the testing.B benches in
// bench_test.go share one implementation.
//
// Paper → experiment mapping (see DESIGN.md §4 for the full index):
//
//	Fig. 7a  → Fig7a:   FlashR-IM / FlashR-EM vs H2O-like / MLlib-like
//	Fig. 7b  → Fig7b:   one machine vs a simulated 4-node cluster
//	Fig. 8   → Fig8:    FlashR vs Revolution-R-Open-like on MASS functions
//	Fig. 9   → Fig9:    EM/IM runtime ratio sweeping p and k
//	Fig. 10  → Fig10:   fusion ablation (base / mem-fuse / cache-fuse)
//	Table 4  → Table4:  measured I/O bytes per algorithm vs its complexity
//	Table 6  → Table6:  runtime and peak memory at the largest scale
//
// Concurrent adds one repo experiment: N sessions sharing one engine.
// Experiments only measure and report. Correctness gates (the CSE
// ablation, sharded equivalence, real-process shard recovery) are tier-1 go
// tests, not experiments.
package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flashr "repro"
	"repro/internal/cluster"
	"repro/internal/dense"
	"repro/internal/eager"
	"repro/internal/safs"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/ml"
)

// Config scales the experiments to the host.
type Config struct {
	// N is the base row count (the paper's Criteo-sub is 325M rows; the
	// default here is laptop-sized).
	N int64
	// Session is the base configuration of every session the experiments
	// open; each experiment copies it and sets only what it varies (EM,
	// SSDDirs, Fuse, Owner, or its own A/B knob). Defaults fills Workers
	// (GOMAXPROCS) and the array bandwidths ReadMBps / WriteMBps
	// (1200/1000 MiB/s), which keep the paper's SSD:DRAM bandwidth ratio
	// (12 GB/s array vs ~100 GB/s four-socket memory, about 1:8) on a host
	// whose single-core memory streams roughly 10 GiB/s.
	Session flashr.Options
	// SSDRoot hosts the simulated drive directories (default: a temp dir
	// removed afterwards).
	SSDRoot string
	// Drives in the simulated array.
	Drives int
	// Iters fixes the iteration count of iterative algorithms so every
	// engine does identical work (the paper: "All iterative algorithms
	// take the same number of iterations").
	Iters int
	// Seed for workload generation.
	Seed int64
	// SweepReadMBps / SweepWriteMBps are the bandwidths used by the two
	// I/O-sensitivity experiments (Fig. 9's compute/I-O crossover and
	// Fig. 10's fusion ablation on SSDs). These calibrate to the paper's
	// per-core I/O share — 12 GB/s over 48 cores ≈ 250 MiB/s — so the
	// crossover the figures study lands inside the swept range on a
	// single-core host. Zero selects the 250/200 defaults.
	SweepReadMBps  float64
	SweepWriteMBps float64
	// ReadErrRate / FlipBitRate inject transient read failures and in-flight
	// bit flips into the EM session's SSD array, exercising the retry and
	// verify-on-read paths under benchmark load (0 = no injection).
	ReadErrRate float64
	FlipBitRate float64
	// FaultSeed seeds the per-drive fault RNGs (0 = derive from Seed).
	FaultSeed int64
	// ConcurrentSessions is the session count for the "concurrent"
	// experiment (0 = 4).
	ConcurrentSessions int
	// Trace, when non-nil, collects execution-span traces from every engine
	// the experiments open; render the merged result with
	// TraceSink.WriteChromeFile after the run (flashr-bench -trace).
	Trace *TraceSink
	// MetricsTo, when non-nil, receives an expfmt metrics dump from each
	// experiment's EM session just before its engine closes
	// (flashr-bench -metrics).
	MetricsTo io.Writer
}

// TraceSink accumulates the span traces of every engine the experiments
// open, so one flashr-bench run — possibly many experiments, each with an
// IM and an EM engine — yields a single merged Chrome trace file.
type TraceSink struct {
	mu    sync.Mutex
	datas []*trace.Data
}

func (ts *TraceSink) add(ds ...*trace.Data) {
	ts.mu.Lock()
	for _, d := range ds {
		if d != nil && (len(d.Events) > 0 || len(d.Passes) > 0) {
			ts.datas = append(ts.datas, d)
		}
	}
	ts.mu.Unlock()
}

// Datas returns the traces collected so far.
func (ts *TraceSink) Datas() []*trace.Data {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]*trace.Data(nil), ts.datas...)
}

// WriteChromeFile renders every collected trace as one Chrome trace_event
// JSON file and self-validates it: the rendered bytes are parsed back and
// the span invariants re-checked before anything lands on disk, so a file
// this returns nil for is known to load in the viewer with well-formed,
// correctly attributed spans.
func (ts *TraceSink) WriteChromeFile(path string) error {
	datas := ts.Datas()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, datas...); err != nil {
		return err
	}
	parsed, err := trace.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("benchmark: trace self-validation: %w", err)
	}
	if err := trace.Verify(parsed); err != nil {
		return fmt.Errorf("benchmark: trace self-validation: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// liveMetrics points at the most recently opened experiment's EM-session
// registry, for the optional flashr-bench -debug-addr endpoint.
var liveMetrics atomic.Pointer[trace.Registry]

// LiveMetricsHandler serves the metrics registry of the most recently
// opened experiment sessions (503 until an experiment opens one).
func LiveMetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reg := liveMetrics.Load()
		if reg == nil {
			http.Error(w, "no experiment sessions open yet", http.StatusServiceUnavailable)
			return
		}
		trace.Handler(reg).ServeHTTP(w, req)
	})
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.N == 0 {
		c.N = 200_000
	}
	if c.Session.Workers == 0 {
		c.Session.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Drives == 0 {
		c.Drives = 4
	}
	if c.Iters == 0 {
		c.Iters = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Session.ReadMBps == 0 {
		c.Session.ReadMBps = 1200
	}
	if c.Session.WriteMBps == 0 {
		c.Session.WriteMBps = 1000
	}
	if c.SweepReadMBps == 0 {
		c.SweepReadMBps = 250
	}
	if c.SweepWriteMBps == 0 {
		c.SweepWriteMBps = 200
	}
	return c
}

// sweepConfig returns the config with the I/O-sensitivity bandwidths
// substituted (Fig. 9 / Fig. 10).
func (c Config) sweepConfig() Config {
	c.Session.ReadMBps = c.SweepReadMBps
	c.Session.WriteMBps = c.SweepWriteMBps
	return c
}

// Row is one reported measurement.
type Row struct {
	Experiment string
	Algorithm  string
	System     string
	Params     string
	Seconds    float64
	// Normalized is relative to the experiment's reference system
	// (FlashR-IM = 1, matching the paper's normalized-runtime plots).
	Normalized float64
	// Extra carries experiment-specific values (peak MB, bytes, ratios).
	Extra string
}

// Format renders rows as an aligned text table.
func Format(rows []Row) string {
	var b strings.Builder
	if len(rows) == 0 {
		return "(no rows)\n"
	}
	fmt.Fprintf(&b, "%-8s %-14s %-14s %-22s %10s %8s  %s\n",
		"exp", "algorithm", "system", "params", "seconds", "norm", "extra")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-14s %-14s %-22s %10.3f %8.2f  %s\n",
			r.Experiment, r.Algorithm, r.System, r.Params, r.Seconds, r.Normalized, r.Extra)
	}
	return b.String()
}

// sessionSet builds the FlashR sessions an experiment needs.
type sessionSet struct {
	im        *flashr.Session
	em        *flashr.Session
	dir       string
	trace     *TraceSink
	metricsTo io.Writer
}

// openSessions opens an in-memory session and an EM session at fusion level
// fuse over a c.Drives-drive array under c.SSDRoot (or a temp dir).
func (c Config) openSessions(fuse flashr.FuseLevel) (*sessionSet, error) {
	opts := c.Session
	opts.Owner = "bench-im"
	im, err := flashr.NewSession(opts)
	if err != nil {
		return nil, err
	}
	dir := c.SSDRoot
	if dir == "" {
		dir, err = os.MkdirTemp("", "flashr-bench-")
		if err != nil {
			return nil, err
		}
	}
	opts = c.Session
	opts.EM, opts.SSDDirs, opts.Fuse, opts.Owner = true, safs.DriveDirs(dir, c.Drives), fuse, "bench-em"
	em, err := flashr.NewSession(opts)
	if err != nil {
		return nil, err
	}
	if c.ReadErrRate > 0 || c.FlipBitRate > 0 {
		seed := c.FaultSeed
		if seed == 0 {
			seed = c.Seed
		}
		em.FS().InjectFaults(&safs.Faults{
			Seed:        seed,
			ReadErrRate: c.ReadErrRate,
			FlipBitRate: c.FlipBitRate,
		})
	}
	if c.Trace != nil {
		im.Engine().StartTrace()
		em.Engine().StartTrace()
	}
	liveMetrics.Store(em.Metrics())
	return &sessionSet{im: im, em: em, dir: dir, trace: c.Trace, metricsTo: c.MetricsTo}, nil
}

func (s *sessionSet) close(cfg Config) {
	if s.metricsTo != nil {
		s.em.Metrics().WriteTo(s.metricsTo)
	}
	if s.trace != nil {
		s.trace.add(s.im.Engine().StopTrace(), s.em.Engine().StopTrace())
	}
	s.em.Close()
	if cfg.SSDRoot == "" {
		os.RemoveAll(s.dir)
	}
}

func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// algoSpec is one benchmark algorithm bound to its dataset family.
type algoSpec struct {
	name    string
	dataset string // "criteo" or "pagegraph"
	// runFlashr executes the algorithm on a FlashR session.
	runFlashr func(s *flashr.Session, x, y *flashr.FM, cfg Config) error
	// runEager executes the identical algorithm on an eager engine.
	runEager func(e *eager.Engine, x, y *dense.Dense, cfg Config) error
	// inH2O mirrors the paper's footnote: H2O lacks correlation and GMM.
	inH2O bool
}

func fixedInitCenters(p, k int) *dense.Dense {
	c := dense.New(k, p)
	for g := 0; g < k; g++ {
		for j := 0; j < p; j++ {
			c.Set(g, j, float64(g)*0.5-float64(k)/4+0.1*float64(j%3))
		}
	}
	return c
}

func algoSuite() []algoSpec {
	const k = 10 // paper: "we run k-means to split a dataset into 10 clusters"
	return []algoSpec{
		{
			name: "correlation", dataset: "criteo", inH2O: false,
			runFlashr: func(s *flashr.Session, x, _ *flashr.FM, cfg Config) error {
				_, err := ml.Correlation(x)
				return err
			},
			runEager: func(e *eager.Engine, x, _ *dense.Dense, cfg Config) error {
				e.Correlation(x)
				return nil
			},
		},
		{
			name: "pca", dataset: "criteo", inH2O: true,
			runFlashr: func(s *flashr.Session, x, _ *flashr.FM, cfg Config) error {
				_, err := ml.PCA(x, 8)
				return err
			},
			runEager: func(e *eager.Engine, x, _ *dense.Dense, cfg Config) error {
				e.PCA(x, 8)
				return nil
			},
		},
		{
			name: "naivebayes", dataset: "criteo", inH2O: true,
			runFlashr: func(s *flashr.Session, x, y *flashr.FM, cfg Config) error {
				_, err := ml.NaiveBayes(s, x, y, 2)
				return err
			},
			runEager: func(e *eager.Engine, x, y *dense.Dense, cfg Config) error {
				e.NaiveBayes(x, y, 2)
				return nil
			},
		},
		{
			name: "logistic", dataset: "criteo", inH2O: true,
			runFlashr: func(s *flashr.Session, x, y *flashr.FM, cfg Config) error {
				_, err := ml.LogisticRegressionLBFGS(s, x, y, ml.LogisticOptions{MaxIter: cfg.Iters, Tol: 1e-12})
				return err
			},
			runEager: func(e *eager.Engine, x, y *dense.Dense, cfg Config) error {
				e.Logistic(x, y, cfg.Iters, 1e-12)
				return nil
			},
		},
		{
			name: "kmeans", dataset: "pagegraph", inH2O: true,
			runFlashr: func(s *flashr.Session, x, _ *flashr.FM, cfg Config) error {
				init := fixedInitCenters(int(x.NCol()), k)
				res, err := ml.KMeans(s, x, k, ml.KMeansOptions{MaxIter: cfg.Iters, InitCenters: init})
				if err == nil {
					res.Assign.Free()
				}
				return err
			},
			runEager: func(e *eager.Engine, x, _ *dense.Dense, cfg Config) error {
				e.KMeans(x, fixedInitCenters(x.C, k), cfg.Iters)
				return nil
			},
		},
		{
			name: "gmm", dataset: "pagegraph", inH2O: false,
			runFlashr: func(s *flashr.Session, x, _ *flashr.FM, cfg Config) error {
				init := fixedInitCenters(int(x.NCol()), 4)
				_, err := ml.GMM(s, x, 4, ml.GMMOptions{MaxIter: cfg.Iters, Tol: 1e-12, InitMeans: init})
				return err
			},
			runEager: func(e *eager.Engine, x, _ *dense.Dense, cfg Config) error {
				e.GMM(x, fixedInitCenters(x.C, 4), cfg.Iters, 1e-12)
				return nil
			},
		},
	}
}

// loadData generates the algorithm's dataset in a given session.
func loadData(s *flashr.Session, spec algoSpec, n, seed int64) (x, y *flashr.FM, err error) {
	switch spec.dataset {
	case "criteo":
		return workload.Criteo(s, n, seed)
	case "pagegraph":
		x, err = workload.PageGraph(s, n, seed)
		return x, nil, err
	default:
		return nil, nil, fmt.Errorf("benchmark: unknown dataset %q", spec.dataset)
	}
}

// denseData gathers a dataset into memory for the eager baselines (the
// paper caches all competitor data in memory before timing).
func denseData(s *flashr.Session, x, y *flashr.FM) (*dense.Dense, *dense.Dense, error) {
	xd, err := x.AsDense()
	if err != nil {
		return nil, nil, err
	}
	var yd *dense.Dense
	if y != nil {
		yd, err = y.AsDense()
		if err != nil {
			return nil, nil, err
		}
	}
	return xd, yd, nil
}

// Fig7a measures FlashR-IM, FlashR-EM, H2O-like and MLlib-like on every
// algorithm; normalized runtime relative to FlashR-IM.
func Fig7a(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		return nil, err
	}
	defer ss.close(cfg)
	var rows []Row
	for _, spec := range algoSuite() {
		xi, yi, err := loadData(ss.im, spec, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		xe, ye, err := loadData(ss.em, spec, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		xd, yd, err := denseData(ss.im, xi, yi)
		if err != nil {
			return nil, err
		}

		tIM, err := timeIt(func() error { return spec.runFlashr(ss.im, xi, yi, cfg) })
		if err != nil {
			return nil, fmt.Errorf("%s flashr-im: %w", spec.name, err)
		}
		emBefore := ss.em.TotalMaterializeStats()
		tEM, err := timeIt(func() error { return spec.runFlashr(ss.em, xe, ye, cfg) })
		if err != nil {
			return nil, fmt.Errorf("%s flashr-em: %w", spec.name, err)
		}
		emIO := ss.em.TotalMaterializeStats().Sub(emBefore)
		spark := eager.New(eager.StyleMLlib, cfg.Session.Workers)
		tSpark, err := timeIt(func() error { return spec.runEager(spark, xd, yd, cfg) })
		if err != nil {
			return nil, err
		}
		add := func(system string, sec float64, extra string) {
			rows = append(rows, Row{
				Experiment: "fig7a", Algorithm: spec.name, System: system,
				Params:  fmt.Sprintf("n=%d p=%d", cfg.N, int(xi.NCol())),
				Seconds: sec, Normalized: sec / tIM, Extra: extra,
			})
		}
		add("FlashR-IM", tIM, "")
		add("FlashR-EM", tEM, emIO.String())
		if spec.inH2O {
			h2o := eager.New(eager.StyleH2O, cfg.Session.Workers)
			tH2O, err := timeIt(func() error { return spec.runEager(h2o, xd, yd, cfg) })
			if err != nil {
				return nil, err
			}
			add("H2O-like", tH2O, "")
		}
		add("MLlib-like", tSpark, "")
		freeAll(xi, yi, xe, ye)
	}
	return rows, nil
}

// Fig7b compares FlashR on one machine against the simulated 4-node
// cluster running the eager baselines (cost model in internal/cluster).
func Fig7b(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		return nil, err
	}
	defer ss.close(cfg)
	cl := cluster.DefaultConfig()
	var rows []Row
	for _, spec := range algoSuite() {
		xi, yi, err := loadData(ss.im, spec, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		xe, ye, err := loadData(ss.em, spec, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		xd, yd, err := denseData(ss.im, xi, yi)
		if err != nil {
			return nil, err
		}
		tIM, err := timeIt(func() error { return spec.runFlashr(ss.im, xi, yi, cfg) })
		if err != nil {
			return nil, err
		}
		tEM, err := timeIt(func() error { return spec.runFlashr(ss.em, xe, ye, cfg) })
		if err != nil {
			return nil, err
		}
		add := func(system string, sec float64, extra string) {
			rows = append(rows, Row{
				Experiment: "fig7b", Algorithm: spec.name, System: system,
				Params:  fmt.Sprintf("n=%d nodes=%d", cfg.N, cl.Nodes),
				Seconds: sec, Normalized: sec / tIM, Extra: extra,
			})
		}
		add("FlashR-IM", tIM, "1 machine")
		add("FlashR-EM", tEM, "1 machine")
		spark := eager.New(eager.StyleMLlib, cfg.Session.Workers)
		var sres cluster.Result
		sres = cluster.Run(cl, spark, func() {
			if err2 := spec.runEager(spark, xd, yd, cfg); err2 != nil {
				err = err2
			}
		})
		if err != nil {
			return nil, err
		}
		add("MLlib-cluster", sres.Total.Seconds(),
			fmt.Sprintf("net=%.3fs rounds=%d", sres.NetworkTime.Seconds(), sres.ReduceRounds))
		if spec.inH2O {
			h2o := eager.New(eager.StyleH2O, cfg.Session.Workers)
			hres := cluster.Run(cl, h2o, func() {
				if err2 := spec.runEager(h2o, xd, yd, cfg); err2 != nil {
					err = err2
				}
			})
			if err != nil {
				return nil, err
			}
			add("H2O-cluster", hres.Total.Seconds(),
				fmt.Sprintf("net=%.3fs rounds=%d", hres.NetworkTime.Seconds(), hres.ReduceRounds))
		}
		freeAll(xi, yi, xe, ye)
	}
	return rows, nil
}

// cfgSeedForFig8 seeds the baseline's serial normal draw in Fig8.
const cfgSeedForFig8 = 77

// Fig8 compares FlashR with the Revolution-R-Open-like baseline on
// matmul-heavy MASS workloads (paper: 1M×1000; scaled by default to
// 20k×256).
func Fig8(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	n := cfg.N / 10
	if n < 2048 {
		n = 2048
	}
	const p = 256
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		return nil, err
	}
	defer ss.close(cfg)

	mu := make([]float64, p)
	sigma := dense.Identity(p)
	for i := 0; i < p; i++ {
		mu[i] = float64(i%7) / 7
		for j := 0; j < p; j++ {
			if i != j {
				sigma.Set(i, j, 0.3/float64(1+absInt(i-j)))
			}
		}
	}

	type fig8Case struct {
		name string
		fr   func(s *flashr.Session) error
		ro   func(e *eager.Engine, xd *dense.Dense, zd *dense.Dense, yd *dense.Dense) error
	}
	// Shared inputs.
	xim, err := ss.im.Rnorm(n, p, 0, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	xem, err := ss.em.Rnorm(n, p, 0, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	xd, err := xim.AsDense()
	if err != nil {
		return nil, err
	}
	labelsIM := flashr.Mod(flashr.Round(flashr.Mul(flashr.GetCol(xim, 0), 100.0)), 2.0)
	labelsEM := flashr.Mod(flashr.Round(flashr.Mul(flashr.GetCol(xem, 0), 100.0)), 2.0)
	if err := labelsIM.MaterializeCtx(context.Background()); err != nil {
		return nil, err
	}
	if err := labelsEM.MaterializeCtx(context.Background()); err != nil {
		return nil, err
	}
	yd, err := labelsIM.AsDense()
	if err != nil {
		return nil, err
	}

	cases := []fig8Case{
		{
			name: "crossprod",
			fr: func(s *flashr.Session) error {
				x := xim
				if s == ss.em {
					x = xem
				}
				_, err := flashr.CrossProd(x).AsDense()
				return err
			},
			ro: func(e *eager.Engine, xd, _, _ *dense.Dense) error {
				e.CrossProd(xd, xd)
				return nil
			},
		},
		{
			name: "mvrnorm",
			fr: func(s *flashr.Session) error {
				out, err := ml.Mvrnorm(s, n, mu, sigma, cfg.Seed)
				if err != nil {
					return err
				}
				if err := out.MaterializeCtx(context.Background()); err != nil {
					return err
				}
				return out.Free()
			},
			ro: func(e *eager.Engine, _, _, _ *dense.Dense) error {
				// Revolution R's rnorm is serial C; generate the standard
				// normals here just as the FlashR side does.
				rng := rand.New(rand.NewSource(cfgSeedForFig8))
				zd := dense.New(int(n), p)
				for i := range zd.Data {
					zd.Data[i] = rng.NormFloat64()
				}
				e.Mvrnorm(zd, mu, sigma)
				return nil
			},
		},
		{
			name: "lda",
			fr: func(s *flashr.Session) error {
				x, y := xim, labelsIM
				if s == ss.em {
					x, y = xem, labelsEM
				}
				_, err := ml.LDA(s, x, y, 2)
				return err
			},
			ro: func(e *eager.Engine, xd, _, yd *dense.Dense) error {
				e.LDA(xd, yd, 2)
				return nil
			},
		},
	}
	var rows []Row
	for _, cse := range cases {
		tIM, err := timeIt(func() error { return cse.fr(ss.im) })
		if err != nil {
			return nil, fmt.Errorf("fig8 %s im: %w", cse.name, err)
		}
		tEM, err := timeIt(func() error { return cse.fr(ss.em) })
		if err != nil {
			return nil, fmt.Errorf("fig8 %s em: %w", cse.name, err)
		}
		ro := eager.New(eager.StyleROpen, cfg.Session.Workers)
		tRO, err := timeIt(func() error { return cse.ro(ro, xd, xd, yd) })
		if err != nil {
			return nil, err
		}
		params := fmt.Sprintf("n=%d p=%d", n, p)
		rows = append(rows,
			Row{Experiment: "fig8", Algorithm: cse.name, System: "FlashR-IM", Params: params, Seconds: tIM, Normalized: 1},
			Row{Experiment: "fig8", Algorithm: cse.name, System: "FlashR-EM", Params: params, Seconds: tEM, Normalized: tEM / tIM},
			Row{Experiment: "fig8", Algorithm: cse.name, System: "ROpen-like", Params: params, Seconds: tRO, Normalized: tRO / tIM},
		)
	}
	return rows, nil
}

// Fig9 sweeps the dimensionality p (correlation, naive bayes) and the
// cluster count k (k-means) and reports the EM/IM runtime ratio, which
// should fall toward 1 as computation grows faster than I/O.
func Fig9(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults().sweepConfig()
	n := cfg.N / 2
	if n < 4096 {
		n = 4096
	}
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		return nil, err
	}
	defer ss.close(cfg)
	var rows []Row
	ps := []int{8, 32, 128, 512}
	for _, p := range ps {
		for _, alg := range []string{"correlation", "naivebayes"} {
			run := func(s *flashr.Session) (float64, error) {
				x, y, err := workload.GaussianBlobs(s, n, p, 2, 2, cfg.Seed)
				if err != nil {
					return 0, err
				}
				defer freeAll(x, y)
				return timeIt(func() error {
					switch alg {
					case "correlation":
						_, err := ml.Correlation(x)
						return err
					default:
						_, err := ml.NaiveBayes(s, x, y, 2)
						return err
					}
				})
			}
			tIM, err := run(ss.im)
			if err != nil {
				return nil, err
			}
			tEM, err := run(ss.em)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{
				Experiment: "fig9", Algorithm: alg, System: "EM/IM",
				Params: fmt.Sprintf("n=%d p=%d", n, p), Seconds: tEM,
				Normalized: tEM / tIM,
				Extra:      fmt.Sprintf("im=%.3fs em=%.3fs", tIM, tEM),
			})
		}
	}
	for _, k := range []int{2, 8, 32, 64} {
		const p = 32
		run := func(s *flashr.Session) (float64, error) {
			x, err := workload.PageGraph(s, n, cfg.Seed)
			if err != nil {
				return 0, err
			}
			defer x.Free()
			init := fixedInitCenters(p, k)
			return timeIt(func() error {
				res, err := ml.KMeans(s, x, k, ml.KMeansOptions{MaxIter: cfg.Iters, InitCenters: init})
				if err == nil {
					res.Assign.Free()
				}
				return err
			})
		}
		tIM, err := run(ss.im)
		if err != nil {
			return nil, err
		}
		tEM, err := run(ss.em)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Experiment: "fig9", Algorithm: "kmeans", System: "EM/IM",
			Params: fmt.Sprintf("n=%d p=%d k=%d", n, p, k), Seconds: tEM,
			Normalized: tEM / tIM,
			Extra:      fmt.Sprintf("im=%.3fs em=%.3fs", tIM, tEM),
		})
	}
	return rows, nil
}

// Fig10 is the fusion ablation on SSDs: speedup of mem-fuse and cache-fuse
// over the per-op-materialization base, per algorithm.
func Fig10(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults().sweepConfig()
	n := cfg.N / 2
	if n < 4096 {
		n = 4096
	}
	var rows []Row
	for _, spec := range algoSuite() {
		times := map[string]float64{}
		for _, fuse := range []struct {
			Name  string
			Level flashr.FuseLevel
		}{
			{Name: "base", Level: flashr.FuseNone},
			{Name: "mem-fuse", Level: flashr.FuseMem},
			{Name: "cache-fuse", Level: flashr.FuseCache},
		} {
			ss, err := cfg.openSessions(fuse.Level)
			if err != nil {
				return nil, err
			}
			x, y, err := loadData(ss.em, spec, n, cfg.Seed)
			if err != nil {
				ss.close(cfg)
				return nil, err
			}
			sec, err := timeIt(func() error { return spec.runFlashr(ss.em, x, y, cfg) })
			freeAll(x, y)
			ss.close(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s %s: %w", spec.name, fuse.Name, err)
			}
			times[fuse.Name] = sec
		}
		for _, name := range []string{"base", "mem-fuse", "cache-fuse"} {
			rows = append(rows, Row{
				Experiment: "fig10", Algorithm: spec.name, System: name,
				Params:  fmt.Sprintf("n=%d (EM)", n),
				Seconds: times[name], Normalized: times["base"] / times[name],
				Extra: "speedup over base",
			})
		}
	}
	return rows, nil
}

// Table6 runs every algorithm out-of-core at the experiment's largest scale
// and reports runtime plus peak heap — the paper's point being that EM
// execution touches a negligible amount of memory relative to the data.
func Table6(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		return nil, err
	}
	defer ss.close(cfg)
	var rows []Row
	for _, spec := range algoSuite() {
		x, y, err := loadData(ss.em, spec, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		dataMB := float64(cfg.N) * float64(x.NCol()) * 8 / (1 << 20)
		peak := newPeakTracker()
		before := ss.em.TotalMaterializeStats()
		sec, err := timeIt(func() error { return spec.runFlashr(ss.em, x, y, cfg) })
		io := ss.em.TotalMaterializeStats().Sub(before)
		peakMB := peak.stop()
		freeAll(x, y)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", spec.name, err)
		}
		rows = append(rows, Row{
			Experiment: "table6", Algorithm: spec.name, System: "FlashR-EM",
			Params:  fmt.Sprintf("n=%d p=%d", cfg.N, int(x.NCol())),
			Seconds: sec,
			Extra: fmt.Sprintf("peakheap=%.0fMB data=%.0fMB ratio=%.2f %s",
				peakMB, dataMB, peakMB/dataMB, io),
		})
	}
	return rows, nil
}

// Table4 verifies the complexity table empirically: measured SAFS bytes per
// algorithm against the expected I/O complexity, and compute scaling in p.
func Table4(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	n := cfg.N / 4
	if n < 4096 {
		n = 4096
	}
	var rows []Row
	for _, spec := range algoSuite() {
		ss, err := cfg.openSessions(flashr.FuseCache)
		if err != nil {
			return nil, err
		}
		x, y, err := loadData(ss.em, spec, n, cfg.Seed)
		if err != nil {
			ss.close(cfg)
			return nil, err
		}
		before := ss.em.FS().Stats().BytesRead
		sec, err := timeIt(func() error { return spec.runFlashr(ss.em, x, y, cfg) })
		readMB := float64(ss.em.FS().Stats().BytesRead-before) / (1 << 20)
		dataMB := float64(n) * float64(x.NCol()) * 8 / (1 << 20)
		freeAll(x, y)
		ss.close(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Experiment: "table4", Algorithm: spec.name, System: "FlashR-EM",
			Params:  fmt.Sprintf("n=%d iters=%d", n, cfg.Iters),
			Seconds: sec,
			Extra:   fmt.Sprintf("read=%.0fMB data=%.0fMB passes=%.1f", readMB, dataMB, readMB/dataMB),
		})
	}
	return rows, nil
}

// Concurrent measures multi-session materialization: N sessions sharing one
// EM engine each run logistic regression on a private dataset, first
// back-to-back (serial reference) and then all at once from a barrier start.
// Rows report the serial and concurrent wall times plus one row per session
// with its own duration and attributed read throughput — the per-pass stats
// the engine's arbiter and the fair-queued SAFS reader account for.
func Concurrent(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	nSess := cfg.ConcurrentSessions
	if nSess <= 0 {
		nSess = 4
	}
	n := cfg.N / 2
	if n < 4096 {
		n = 4096
	}
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		return nil, err
	}
	defer ss.close(cfg)

	type unit struct {
		s    *flashr.Session
		x, y *flashr.FM
	}
	// Distinct seeds per session and per phase keep the shared result cache
	// from serving one phase's passes to the other.
	open := func(tag string, seedOff int64) ([]unit, error) {
		units := make([]unit, nSess)
		for i := range units {
			cs := ss.em.Share(fmt.Sprintf("%s-%d", tag, i), 1)
			x, y, err := workload.Criteo(cs, n, cfg.Seed+seedOff+int64(i))
			if err != nil {
				return nil, err
			}
			units[i] = unit{s: cs, x: x, y: y}
		}
		return units, nil
	}
	runLogistic := func(u unit) error {
		_, err := ml.LogisticRegressionLBFGS(u.s, u.x, u.y, ml.LogisticOptions{MaxIter: cfg.Iters, Tol: 1e-12})
		return err
	}

	serial, err := open("serial", 10_000)
	if err != nil {
		return nil, err
	}
	serialSec, err := timeIt(func() error {
		for _, u := range serial {
			if err := runLogistic(u); err != nil {
				return err
			}
		}
		return nil
	})
	for _, u := range serial {
		freeAll(u.x, u.y)
	}
	if err != nil {
		return nil, fmt.Errorf("concurrent serial reference: %w", err)
	}

	conc, err := open("sess", 20_000)
	if err != nil {
		return nil, err
	}
	durs := make([]time.Duration, nSess)
	errs := make([]error, nSess)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range conc {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			errs[i] = runLogistic(conc[i])
			durs[i] = time.Since(t0)
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	concSec := time.Since(t0).Seconds()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("concurrent session %d: %w", i, err)
		}
	}

	params := fmt.Sprintf("n=%d sessions=%d iters=%d (EM)", n, nSess, cfg.Iters)
	minD, maxD := durs[0], durs[0]
	var aggRead int64
	rows := []Row{{
		Experiment: "conc", Algorithm: "logistic", System: "serial",
		Params: params, Seconds: serialSec, Normalized: 1,
		Extra: fmt.Sprintf("%d sessions back-to-back", nSess),
	}}
	for i, u := range conc {
		if durs[i] < minD {
			minD = durs[i]
		}
		if durs[i] > maxD {
			maxD = durs[i]
		}
		st := u.s.TotalMaterializeStats()
		aggRead += st.BytesRead
		rows = append(rows, Row{
			Experiment: "conc", Algorithm: "logistic", System: u.s.Owner(),
			Params: params, Seconds: durs[i].Seconds(), Normalized: durs[i].Seconds() / concSec,
			Extra: fmt.Sprintf("readrate=%.1fMB/s %s",
				float64(st.BytesRead)/(1<<20)/durs[i].Seconds(), st),
		})
		freeAll(u.x, u.y)
	}
	fair := float64(maxD) / float64(minD)
	rows = append(rows, Row{
		Experiment: "conc", Algorithm: "logistic", System: "concurrent",
		Params: params, Seconds: concSec, Normalized: concSec / serialSec,
		Extra: fmt.Sprintf("speedup=%.2fx fairness=%.2f agg-read=%.1fMB/s",
			serialSec/concSec, fair, float64(aggRead)/(1<<20)/concSec),
	})
	return rows, nil
}

// Experiments lists the runnable experiment names.
func Experiments() []string {
	return []string{"fig7a", "fig7b", "fig8", "fig9", "fig10", "table4", "table6", "concurrent"}
}

// Run dispatches an experiment by name ("all" runs everything).
func Run(name string, cfg Config) ([]Row, error) {
	switch name {
	case "fig7a":
		return Fig7a(cfg)
	case "fig7b":
		return Fig7b(cfg)
	case "fig8":
		return Fig8(cfg)
	case "fig9":
		return Fig9(cfg)
	case "fig10":
		return Fig10(cfg)
	case "table4":
		return Table4(cfg)
	case "table6":
		return Table6(cfg)
	case "concurrent":
		return Concurrent(cfg)
	case "all":
		var all []Row
		for _, e := range Experiments() {
			rows, err := Run(e, cfg)
			if err != nil {
				return all, err
			}
			all = append(all, rows...)
			// Return prior experiments' memory before the next one so
			// Table 6's peak-heap measurement stays uncontaminated.
			runtime.GC()
			debug.FreeOSMemory()
		}
		return all, nil
	default:
		return nil, fmt.Errorf("benchmark: unknown experiment %q (have %s, all)",
			name, strings.Join(Experiments(), ", "))
	}
}

// peakTracker samples heap usage during a measurement.
type peakTracker struct {
	stopCh chan struct{}
	peak   atomic.Int64
	done   chan struct{}
}

func newPeakTracker() *peakTracker {
	p := &peakTracker{stopCh: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapAlloc)
	p.peak.Store(base)
	go func() {
		defer close(p.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if h := int64(ms.HeapAlloc); h > p.peak.Load() {
					p.peak.Store(h)
				}
			}
		}
	}()
	return p
}

// stop ends sampling and returns the peak heap in MB.
func (p *peakTracker) stop() float64 {
	close(p.stopCh)
	<-p.done
	return float64(p.peak.Load()) / (1 << 20)
}

func freeAll(fms ...*flashr.FM) {
	for _, f := range fms {
		if f != nil {
			f.Free()
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SortRows orders rows by (experiment, algorithm, system) for stable output.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		return a.System < b.System
	})
}
