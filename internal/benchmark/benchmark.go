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
package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
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
	// ShardWorkers is the in-process shard count for the "shard"
	// experiment (0 = 2); ignored when ShardAddrs is set.
	ShardWorkers int
	// ShardAddrs lists already-running flashr-shardworker TCP addresses;
	// when set, the "shard" experiment distributes over real processes.
	ShardAddrs []string
	// ShardPartRows overrides the I/O partition height for both runs of
	// the "shard" experiment (0 = engine default). TCP workers validate
	// their own -part-rows against this at hello; smaller partitions let
	// small smoke datasets span every shard.
	ShardPartRows int
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

// ioExtra compresses a MaterializeStats delta into a Row.Extra fragment.
// wstall < wtime is the visible proof that the write-behind queue overlapped
// SSD writes with compute (under SyncWrites the two are equal by
// construction).
func ioExtra(s flashr.MaterializeStats) string {
	out := fmt.Sprintf("read=%.0fMB written=%.0fMB pf=%d/%d wstall=%.3fs wtime=%.3fs verify=%.3fs",
		float64(s.BytesRead)/(1<<20), float64(s.BytesWritten)/(1<<20),
		s.PrefetchHits, s.PrefetchMisses,
		s.WriteStall.Seconds(), s.WriteTime.Seconds(), s.VerifyTime.Seconds())
	if s.ChecksumFailures != 0 || s.IORetries != 0 || s.RecoveredReads != 0 || s.RecoveredWrites != 0 {
		out += fmt.Sprintf(" csfail=%d retries=%d recovered=%d/%d",
			s.ChecksumFailures, s.IORetries, s.RecoveredReads, s.RecoveredWrites)
	}
	if s.CSEUnifications != 0 || s.CacheHits != 0 || s.CacheMisses != 0 {
		out += fmt.Sprintf(" cse=%d hits=%d/%d saved=%.0fMB evict=%d nodes=%d",
			s.CSEUnifications, s.CacheHits, s.CacheMisses,
			float64(s.CacheHitBytes)/(1<<20), s.CacheEvictions, s.NodesExecuted)
	}
	return out
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
		add("FlashR-EM", tEM, ioExtra(emIO))
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
				peakMB, dataMB, peakMB/dataMB, ioExtra(io)),
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

// CSE is the hash-consing/result-cache A/B: an iterative EM workload whose
// per-iteration DAG contains an iteration-invariant statistics pass (plus a
// deliberate duplicate sink) and an iteration-dependent update pass, run with
// structural hash-consing on and off. The two runs must produce bit-identical
// outputs, and the CSE-on run must report unifications, cache hits, and
// strictly less leaf I/O and node execution — violations surface as errors,
// so CI gates on this experiment simply by running it.
func CSE(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	n := cfg.N / 2
	if n < 4096 {
		n = 4096
	}
	type result struct {
		vals  []float64
		stats flashr.MaterializeStats
		sec   float64
	}
	runMode := func(disable bool) (result, error) {
		var res result
		dir, err := os.MkdirTemp(cfg.SSDRoot, "flashr-cse-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		opts := cfg.Session
		opts.EM, opts.SSDDirs = true, safs.DriveDirs(dir, cfg.Drives)
		opts.DisableCSE = disable
		opts.Owner = map[bool]string{false: "bench-cse-on", true: "bench-cse-off"}[disable]
		s, err := flashr.NewSession(opts)
		if err != nil {
			return res, err
		}
		defer s.Close()
		if cfg.Trace != nil {
			s.Engine().StartTrace()
			defer func() { cfg.Trace.add(s.Engine().StopTrace()) }()
		}
		x, err := workload.PageGraph(s, n, cfg.Seed)
		if err != nil {
			return res, err
		}
		defer x.Free()
		before := s.TotalMaterializeStats()
		res.sec, err = timeIt(func() error {
			for it := 0; it < cfg.Iters; it++ {
				// Pass 1: iteration-invariant statistics — the same DAG every
				// iteration, with a structural duplicate in the same flush.
				a := flashr.Sum(flashr.Sqrt(flashr.Abs(x)))
				b := flashr.Sum(flashr.Sqrt(flashr.Abs(x)))
				av, err := a.Float()
				if err != nil {
					return err
				}
				bv, err := b.Float()
				if err != nil {
					return err
				}
				// Pass 2: iteration-dependent update — never cache-served.
				cv, err := flashr.Sum(flashr.Mul(x, float64(it+1))).Float()
				if err != nil {
					return err
				}
				res.vals = append(res.vals, av, bv, cv)
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		res.stats = s.TotalMaterializeStats().Sub(before)
		return res, nil
	}
	on, err := runMode(false)
	if err != nil {
		return nil, fmt.Errorf("cse on: %w", err)
	}
	off, err := runMode(true)
	if err != nil {
		return nil, fmt.Errorf("cse off: %w", err)
	}
	if len(on.vals) != len(off.vals) {
		return nil, fmt.Errorf("cse: output lengths differ: %d vs %d", len(on.vals), len(off.vals))
	}
	for i := range on.vals {
		if math.Float64bits(on.vals[i]) != math.Float64bits(off.vals[i]) {
			return nil, fmt.Errorf("cse: output %d differs: %v (on) vs %v (off)", i, on.vals[i], off.vals[i])
		}
	}
	if on.stats.CSEUnifications == 0 {
		return nil, fmt.Errorf("cse: CSE-on iterative run reported zero unifications")
	}
	if on.stats.CacheHits == 0 {
		return nil, fmt.Errorf("cse: CSE-on iterative run reported zero cache hits")
	}
	if on.stats.BytesRead >= off.stats.BytesRead {
		return nil, fmt.Errorf("cse: CSE-on read %d bytes, not fewer than CSE-off's %d",
			on.stats.BytesRead, off.stats.BytesRead)
	}
	if on.stats.NodesExecuted >= off.stats.NodesExecuted {
		return nil, fmt.Errorf("cse: CSE-on executed %d nodes, not fewer than CSE-off's %d",
			on.stats.NodesExecuted, off.stats.NodesExecuted)
	}
	params := fmt.Sprintf("n=%d iters=%d (EM)", n, cfg.Iters)
	return []Row{
		{Experiment: "cse", Algorithm: "iterative", System: "cse-on", Params: params,
			Seconds: on.sec, Normalized: 1, Extra: ioExtra(on.stats)},
		{Experiment: "cse", Algorithm: "iterative", System: "cse-off", Params: params,
			Seconds: off.sec, Normalized: off.sec / on.sec, Extra: ioExtra(off.stats)},
	}, nil
}

// Rewrite is the algebraic-rewrite A/B: three EM workload shapes, each run
// with the optimizer on and off, each self-gating. "kmeans" is a k-means-like
// assignment/update loop whose feature columns are selected out of a wider
// cbind — dead-input elimination must prune the unread half, with
// bit-identical outputs (view/DCE rules are exact). "logistic" is an
// iterative loop whose per-iteration step scales an iteration-invariant
// reduction by a learning rate — aggregation folding must turn the scaled
// sink into an affine transform over a cacheable raw reduction, with
// tolerance-pinned outputs (folding reassociates the float reduction).
// "crossprod" computes t(X)%*%X through two structurally identical but
// distinct operands over a DCE-able selection — crossprod self-recognition
// must select the Syrk kernel, with bit-identical outputs. Every shape must
// read strictly fewer bytes with rewrites on and not regress wall time;
// violations surface as errors, so CI gates on this experiment by running it.
func Rewrite(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	n := cfg.N / 2
	if n < 4096 {
		n = 4096
	}
	const p = 16
	sel := make([]int, p)
	for i := range sel {
		sel[i] = i
	}
	type result struct {
		vals  []float64
		stats flashr.MaterializeStats
		sec   float64
	}
	runShape := func(shape string, disable bool, prog func(s *flashr.Session, feat, junk *flashr.FM, out *[]float64) error) (result, error) {
		var res result
		dir, err := os.MkdirTemp(cfg.SSDRoot, "flashr-rewrite-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		opts := cfg.Session
		opts.EM, opts.SSDDirs = true, safs.DriveDirs(dir, cfg.Drives)
		opts.DisableRewrites = disable
		opts.Owner = fmt.Sprintf("bench-rw-%s-%v", shape, map[bool]string{false: "on", true: "off"}[disable])
		s, err := flashr.NewSession(opts)
		if err != nil {
			return res, err
		}
		defer s.Close()
		if cfg.Trace != nil {
			s.Engine().StartTrace()
			defer func() { cfg.Trace.add(s.Engine().StopTrace()) }()
		}
		feat, err := s.GenerateSeeded(n, p, cfg.Seed, func(rng *rand.Rand, row []float64) {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		})
		if err != nil {
			return res, err
		}
		defer feat.Free()
		junk, err := s.GenerateSeeded(n, p, cfg.Seed+1, func(rng *rand.Rand, row []float64) {
			for j := range row {
				row[j] = rng.NormFloat64() * 3
			}
		})
		if err != nil {
			return res, err
		}
		defer junk.Free()
		before := s.TotalMaterializeStats()
		res.sec, err = timeIt(func() error { return prog(s, feat, junk, &res.vals) })
		if err != nil {
			return res, err
		}
		res.stats = s.TotalMaterializeStats().Sub(before)
		return res, nil
	}

	// kmeans: each iteration shifts the selected features by the iteration
	// index (so no whole-sink result is reused across iterations in either
	// run) and reduces them — the junk half of the cbind must never be read.
	kmeansProg := func(s *flashr.Session, feat, junk *flashr.FM, out *[]float64) error {
		for it := 0; it < cfg.Iters; it++ {
			x := flashr.GetCols(flashr.Cbind(feat, junk), sel)
			// Square the shifted features so the sinks see a non-linear top
			// layer: this shape must stay bit-identical, exercising only the
			// exact view/DCE rules, not aggregation folding.
			d := flashr.Add(x, float64(it))
			sq, err := flashr.Sum(flashr.Mul(d, d)).Float()
			if err != nil {
				return err
			}
			cs, err := flashr.ColSums(flashr.Mul(d, d)).AsVector()
			if err != nil {
				return err
			}
			*out = append(*out, sq)
			*out = append(*out, cs...)
		}
		return nil
	}
	// logistic: the sigmoid reduction is iteration-invariant; only the
	// learning-rate scale changes. Folding leaves a cacheable raw sink.
	logisticProg := func(s *flashr.Session, feat, junk *flashr.FM, out *[]float64) error {
		for it := 0; it < cfg.Iters; it++ {
			lr := 0.1 / float64(it+1)
			g, err := flashr.Sum(flashr.Mul(flashr.Sigmoid(feat), lr)).Float()
			if err != nil {
				return err
			}
			*out = append(*out, g)
		}
		return nil
	}
	// crossprod: two distinct but structurally identical operands over the
	// DCE-able selection; recognition must pick the symmetric kernel.
	crossprodProg := func(s *flashr.Session, feat, junk *flashr.FM, out *[]float64) error {
		for it := 0; it < cfg.Iters; it++ {
			x := flashr.GetCols(flashr.Cbind(feat, junk), sel)
			a := flashr.Mul(x, float64(it+1))
			b := flashr.Mul(x, float64(it+1))
			g, err := flashr.CrossProd2(a, b).AsDense()
			if err != nil {
				return err
			}
			*out = append(*out, g.Data...)
		}
		return nil
	}

	type shapeSpec struct {
		name  string
		prog  func(s *flashr.Session, feat, junk *flashr.FM, out *[]float64) error
		exact bool // bit-identical gate vs tolerance-pinned
		check func(on result) error
	}
	shapes := []shapeSpec{
		{"kmeans", kmeansProg, true, func(on result) error {
			if on.stats.RewriteDCE == 0 || on.stats.RewriteViews == 0 {
				return fmt.Errorf("expected view+DCE rewrites, got view=%d dce=%d",
					on.stats.RewriteViews, on.stats.RewriteDCE)
			}
			return nil
		}},
		{"logistic", logisticProg, false, func(on result) error {
			if on.stats.RewriteAggFolds == 0 {
				return fmt.Errorf("expected aggregation folds, got none")
			}
			if on.stats.CacheHits == 0 {
				return fmt.Errorf("expected folded raw sink to cache-hit across iterations")
			}
			return nil
		}},
		{"crossprod", crossprodProg, true, func(on result) error {
			if on.stats.RewriteCrossProds == 0 {
				return fmt.Errorf("expected crossprod self-recognition, got none")
			}
			if on.stats.RewriteDCE == 0 {
				return fmt.Errorf("expected DCE on the crossprod input, got none")
			}
			return nil
		}},
	}
	var rows []Row
	for _, sp := range shapes {
		on, err := runShape(sp.name, false, sp.prog)
		if err != nil {
			return nil, fmt.Errorf("rewrite %s on: %w", sp.name, err)
		}
		off, err := runShape(sp.name, true, sp.prog)
		if err != nil {
			return nil, fmt.Errorf("rewrite %s off: %w", sp.name, err)
		}
		if len(on.vals) != len(off.vals) {
			return nil, fmt.Errorf("rewrite %s: output lengths differ: %d vs %d", sp.name, len(on.vals), len(off.vals))
		}
		for i := range on.vals {
			if sp.exact {
				if math.Float64bits(on.vals[i]) != math.Float64bits(off.vals[i]) {
					return nil, fmt.Errorf("rewrite %s: output %d differs: %v (on) vs %v (off)",
						sp.name, i, on.vals[i], off.vals[i])
				}
			} else if d := math.Abs(on.vals[i] - off.vals[i]); d > 1e-9*math.Abs(off.vals[i])+1e-12 {
				return nil, fmt.Errorf("rewrite %s: output %d outside tolerance: %v (on) vs %v (off)",
					sp.name, i, on.vals[i], off.vals[i])
			}
		}
		if err := sp.check(on); err != nil {
			return nil, fmt.Errorf("rewrite %s: %w", sp.name, err)
		}
		if off.stats.Rewrites != 0 {
			return nil, fmt.Errorf("rewrite %s: rewrites-off run reported %d rewrites", sp.name, off.stats.Rewrites)
		}
		if on.stats.BytesRead >= off.stats.BytesRead {
			return nil, fmt.Errorf("rewrite %s: rewrites-on read %d bytes, not fewer than rewrites-off's %d",
				sp.name, on.stats.BytesRead, off.stats.BytesRead)
		}
		// Wall-time no-regression gate, with slack for scheduling noise on
		// loaded CI hosts (the on-run does strictly less I/O and compute).
		if on.sec > off.sec*1.5 {
			return nil, fmt.Errorf("rewrite %s: rewrites-on took %.3fs, regressing past rewrites-off's %.3fs",
				sp.name, on.sec, off.sec)
		}
		params := fmt.Sprintf("n=%d p=%d iters=%d (EM)", n, p, cfg.Iters)
		rwExtra := fmt.Sprintf("rw=%d view=%d xprod=%d fold=%d dce=%d dead=%d ",
			on.stats.Rewrites, on.stats.RewriteViews, on.stats.RewriteCrossProds,
			on.stats.RewriteAggFolds, on.stats.RewriteDCE, on.stats.RewriteDeadNodes)
		rows = append(rows,
			Row{Experiment: "rewrite", Algorithm: sp.name, System: "rewrite-on", Params: params,
				Seconds: on.sec, Normalized: 1, Extra: rwExtra + ioExtra(on.stats)},
			Row{Experiment: "rewrite", Algorithm: sp.name, System: "rewrite-off", Params: params,
				Seconds: off.sec, Normalized: off.sec / on.sec, Extra: ioExtra(off.stats)},
		)
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
			Extra: fmt.Sprintf("read=%.1fMB/s passes=%d %s",
				float64(st.BytesRead)/(1<<20)/durs[i].Seconds(), st.Passes, ioExtra(st)),
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
	return []string{"fig7a", "fig7b", "fig8", "fig9", "fig10", "table4", "table6", "cse", "rewrite", "concurrent", "shard"}
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
	case "cse":
		return CSE(cfg)
	case "rewrite":
		return Rewrite(cfg)
	case "concurrent":
		return Concurrent(cfg)
	case "shard":
		return Shard(cfg)
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
