package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/workload"
	"repro/ml"
)

// sizes are the benchmark's fixed problem sizes. They are constants of the
// benchmark, identical on every commit: a result is only comparable with
// another taken at the same sizes.
type sizes struct {
	rows     int64 // rows of the Criteo-like X (and of PageGraph) in im_chain / em_*
	blasRows int64 // rows of the 256-column matrix in im_blas
	twinRows int64 // rows of the small twin the oracle checks against plain loops
	setups   int   // set-ups per run; setup_s is their median

	ceilBytes  int           // buffer of the memcpy / CRC32C ceilings
	probeParts int           // partitions a storage probe moves
	probeTime  time.Duration // least duration of one timed blas probe batch
}

var (
	// fullSizes fit four workloads × 23 runs of ≈ 24 s into the driver's hour
	// on two cores: a round is 0.5–1 s, so a 20 s run holds 20–40 of them
	// (README.md: a median of fewer than 24 rounds moved 6 % on this host).
	fullSizes = sizes{rows: 1 << 18, blasRows: 1 << 15, twinRows: 1 << 12, setups: 3,
		ceilBytes: 64 << 20, probeParts: 16, probeTime: 100 * time.Millisecond}
	// quickSizes is the tier-1 smoke size (bench_test.go, -quick).
	quickSizes = sizes{rows: 1 << 14, blasRows: 1 << 12, twinRows: 1 << 11, setups: 1,
		ceilBytes: 4 << 20, probeParts: 2, probeTime: 5 * time.Millisecond}
)

const (
	blasCols   = 256
	kmeansK    = 10
	gmmK       = 2
	perturbSD  = 0.05 // per-round parameter noise: fixed grid + N(0, perturbSD²)
	arrayDrive = 4    // drives of the simulated SSD array

	// resultCacheBytes is the engine's 256 MiB default scaled like the data
	// (a quarter): X stays larger than the cache, and the cache reaches its
	// plateau within the first rounds instead of raising peak RSS all run.
	resultCacheBytes = 64 << 20
)

// dataset is what a workload's steps read: x is the main matrix (Criteo-like
// 40 columns, or 256-column blobs), y its labels, g the PageGraph embedding.
type dataset struct {
	x, y, g *flashr.FM
}

func (d *dataset) free() {
	for _, m := range []*flashr.FM{d.x, d.y, d.g} {
		if m != nil {
			_ = m.Free() // teardown: the array directory is removed right after
		}
	}
}

// bytesOf is the payload size of a tall matrix (8-byte elements).
func bytesOf(m *flashr.FM) int64 {
	if m == nil {
		return 0
	}
	return m.NRow() * m.NCol() * 8
}

// params are one step's per-round inputs, drawn from the seeded RNG so that
// no step ever repeats a DAG the result cache has already seen.
type params struct {
	scalars []float64
	mat     *dense.Dense
}

// named is one labelled output vector of a step; the oracle compares the
// engine's values with the plain-loop reference's name by name.
type named struct {
	name string
	v    []float64
}

type values []named

// step is one operation of a round.
type step struct {
	name  string
	layer string // metric prefix of the step's time: "ml" or "flashr"
	draw  func(rng *rand.Rand) params
	// run executes the step through the public API and returns its outputs.
	run func(s *flashr.Session, d *dataset, p params) (values, error)
	// check holds the step's cheap invariants, asserted every round at full
	// size on top of the common ones (nil = none of its own).
	check func(v values, d *dataset, p params) error
	// warm is an invariant that costs a pass of its own, so only the warm-up
	// round asserts it (nil = none).
	warm func(s *flashr.Session, d *dataset, p params, v values) error
	// ref is the plain-loop reference the warm-up round compares the twin
	// against (oracle.go).
	ref func(d *denseData, p params) values
	// leafBytes is the input a single pass of the step scans (computed, for
	// bench.scan_gbps); flops the step's nominal floating-point work, for the
	// steps that blas.step_gflops counts (nil elsewhere).
	leafBytes func(d *dataset) int64
	flops     func(d *dataset) float64
}

type workloadDef struct {
	name string
	em   bool  // external-memory session on a 4-drive safs array
	cols int64 // columns of the main matrix
	// partRows overrides the engine's I/O partition height (0 = default).
	partRows int
	rows     func(sz sizes) int64
	gen      func(s *flashr.Session, n, seed int64) (*dataset, error)
	step     []step
}

// workloads are the four sessions of BENCHMARK.json, in its order; why each
// was chosen is recorded there and in README.md. Each pairs with another
// that bypasses its layer: im_chain is core-bound where im_blas is
// blas-bound, em_scan only reads the array where em_writeback also writes.
var workloads = []workloadDef{
	{
		name: "im_chain",
		cols: workload.CriteoCols,
		rows: func(sz sizes) int64 { return sz.rows },
		gen:  genChain,
		step: []step{logisticStep(10), kmeansStep(), gmmStep()},
	},
	{
		name: "im_blas",
		cols: blasCols,
		// 2,048 × 256 is a 4 MiB partition, like the default 16,384 rows of a
		// 40-column matrix (5 MiB). At the default height this matrix would
		// be two partitions, and a pass could keep at most two workers busy.
		partRows: 2048,
		rows:     func(sz sizes) int64 { return sz.blasRows },
		gen:      genBlobs,
		step:     []step{gemmTallStep(), syrkStep(), gemmTAStep()},
	},
	{
		name: "em_scan",
		em:   true,
		cols: workload.CriteoCols,
		rows: func(sz sizes) int64 { return sz.rows },
		gen:  genCriteo,
		step: []step{logisticStep(5), thresholdStep()},
	},
	{
		name: "em_writeback",
		em:   true,
		cols: workload.CriteoCols,
		rows: func(sz sizes) int64 { return sz.rows },
		gen:  genCriteo,
		step: []step{mapSaveStep(), cumsumSaveStep()},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func genCriteo(s *flashr.Session, n, seed int64) (*dataset, error) {
	x, y, err := workload.Criteo(s, n, seed)
	if err != nil {
		return nil, err
	}
	return &dataset{x: x, y: y}, nil
}

func genChain(s *flashr.Session, n, seed int64) (*dataset, error) {
	d, err := genCriteo(s, n, seed)
	if err != nil {
		return nil, err
	}
	if d.g, err = workload.PageGraph(s, n, seed); err != nil {
		return nil, err
	}
	return d, nil
}

func genBlobs(s *flashr.Session, n, seed int64) (*dataset, error) {
	x, y, err := workload.GaussianBlobs(s, n, blasCols, 8, 2, seed)
	if err != nil {
		return nil, err
	}
	return &dataset{x: x, y: y}, nil
}

// perturbed returns base + N(0, perturbSD²) element-wise.
func perturbed(rng *rand.Rand, base []float64) []float64 {
	out := make([]float64, len(base))
	for i, b := range base {
		out[i] = b + perturbSD*rng.NormFloat64()
	}
	return out
}

// gridCenters is the fixed k×p grid the clustering steps perturb: decaying
// per-dimension scale like the PageGraph embedding, from a constant seed so
// the grid is the same for every data seed.
func gridCenters(k, p int) []float64 {
	rng := rand.New(rand.NewSource(4242))
	c := make([]float64, k*p)
	for i := range c {
		c[i] = rng.NormFloat64() / float64(i%p+1)
	}
	return c
}

func randMat(rng *rand.Rand, r, c int, scale float64) *dense.Dense {
	d := dense.New(r, c)
	for i := range d.Data {
		d.Data[i] = scale * rng.NormFloat64()
	}
	return d
}

func finite(v values) error {
	for _, nv := range v {
		for i, f := range nv.v {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("%s[%d] = %v is not finite", nv.name, i, f)
			}
		}
	}
	return nil
}

func (v values) get(name string) []float64 {
	for _, nv := range v {
		if nv.name == name {
			return nv.v
		}
	}
	return nil
}

// ---- ml steps ----

func logisticStep(maxIter int) step {
	return step{
		name: "logistic", layer: "ml",
		draw: func(rng *rand.Rand) params {
			return params{scalars: []float64{1e-3 * (1 + perturbSD*rng.NormFloat64())}}
		},
		run: func(s *flashr.Session, d *dataset, p params) (values, error) {
			m, err := ml.LogisticRegressionLBFGS(s, d.x, d.y, ml.LogisticOptions{MaxIter: maxIter, Tol: 1e-12, L2: p.scalars[0]})
			if err != nil {
				return nil, err
			}
			return values{{"logloss", []float64{m.LogLoss}}, {"w", m.W}}, nil
		},
		check: func(v values, _ *dataset, _ params) error {
			// L-BFGS starts at w = 0, where the penalized logloss is ln 2, and
			// only accepts decreasing iterates.
			if ll := v.get("logloss")[0]; ll > math.Ln2 {
				return fmt.Errorf("logloss %.6f above ln 2", ll)
			}
			return nil
		},
		ref:       func(d *denseData, p params) values { return refLogistic(d.x, d.y, p.scalars[0], maxIter) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) + bytesOf(d.y) },
	}
}

func kmeansStep() step {
	const maxIter = 4
	base := gridCenters(kmeansK, workload.PageGraphCols)
	return step{
		name: "kmeans", layer: "ml",
		draw: func(rng *rand.Rand) params {
			return params{mat: dense.FromSlice(kmeansK, workload.PageGraphCols, perturbed(rng, base))}
		},
		run: func(s *flashr.Session, d *dataset, p params) (values, error) {
			r, err := ml.KMeans(s, d.g, kmeansK, ml.KMeansOptions{MaxIter: maxIter, InitCenters: p.mat})
			if err != nil {
				return nil, err
			}
			if err := r.Assign.Free(); err != nil {
				return nil, err
			}
			return values{{"objective", []float64{r.Objective}}, {"sizes", r.Sizes}, {"centers", r.Centers.Data}}, nil
		},
		check: func(v values, d *dataset, _ params) error {
			var total float64
			for _, sz := range v.get("sizes") {
				total += sz
			}
			if total != float64(d.g.NRow()) {
				return fmt.Errorf("cluster sizes sum to %v, want %d", total, d.g.NRow())
			}
			if obj := v.get("objective")[0]; obj <= 0 {
				return fmt.Errorf("objective %v is not positive", obj)
			}
			return nil
		},
		// Lloyd's iterations must not leave the objective above its value at
		// the initial centres.
		warm: func(s *flashr.Session, d *dataset, p params, v values) error {
			dist := flashr.InnerProd(d.g, s.Small(p.mat).T(), "euclidean", "+")
			initial, err := flashr.Sum(flashr.AggRow(dist, "min")).Float()
			if err != nil {
				return err
			}
			if final := v.get("objective")[0]; final > initial {
				return fmt.Errorf("k-means objective rose from %v to %v", initial, final)
			}
			return nil
		},
		ref:       func(d *denseData, p params) values { return refKMeans(d.g, p.mat, maxIter) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.g) },
	}
}

func gmmStep() step {
	base := gridCenters(gmmK, workload.PageGraphCols)
	return step{
		name: "gmm", layer: "ml",
		draw: func(rng *rand.Rand) params {
			return params{mat: dense.FromSlice(gmmK, workload.PageGraphCols, perturbed(rng, base))}
		},
		run: func(s *flashr.Session, d *dataset, p params) (values, error) {
			m, err := ml.GMM(s, d.g, gmmK, ml.GMMOptions{MaxIter: 1, InitMeans: p.mat})
			if err != nil {
				return nil, err
			}
			out := values{{"loglike", []float64{m.LogLike}}, {"weights", m.Weights}, {"means", m.Means.Data}}
			for c, cov := range m.Covs {
				out = append(out, named{fmt.Sprintf("cov%d", c), cov.Data})
			}
			return out, nil
		},
		check: func(v values, _ *dataset, _ params) error {
			var total float64
			for _, w := range v.get("weights") {
				total += w
			}
			if math.Abs(total-1) > 1e-9 {
				return fmt.Errorf("mixing weights sum to %v", total)
			}
			// Weighted Gramians come from a general t(X) %*% Y, so the two
			// triangles agree to rounding, not bit for bit.
			return symmetric(v.get("cov0"), workload.PageGraphCols, 1e-9)
		},
		ref:       func(d *denseData, p params) values { return refGMM(d.g, p.mat) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.g) },
	}
}

// symmetric checks a row-major p×p matrix against its transpose to the given
// tolerance, relative to the matrix's largest magnitude (an off-diagonal
// covariance may be arbitrarily close to 0); 0 demands bit equality, which
// holds where the engine mirrors one triangle into the other.
func symmetric(a []float64, p int, tol float64) error {
	var scale float64
	for _, v := range a {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(a[i*p+j]-a[j*p+i]) > tol*scale {
				return fmt.Errorf("matrix not symmetric at (%d,%d): %v vs %v", i, j, a[i*p+j], a[j*p+i])
			}
		}
	}
	return nil
}

// ---- blas-bound steps (im_blas) ----

const (
	gemmTallCols = 64
	gemmTACols   = 32
)

func gemmTallStep() step {
	return step{
		name: "gemm_tall", layer: "flashr",
		draw: func(rng *rand.Rand) params { return params{mat: randMat(rng, blasCols, gemmTallCols, 1.0/16)} },
		run: func(s *flashr.Session, d *dataset, p params) (values, error) {
			cs, err := flashr.ColSums(flashr.MatMul(d.x, s.Small(p.mat))).AsVector()
			return values{{"colsums", cs}}, err
		},
		ref:       func(d *denseData, p params) values { return refGemmTall(d.x, p.mat) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) },
		flops:     func(d *dataset) float64 { return 2 * float64(d.x.NRow()) * blasCols * gemmTallCols },
	}
}

func syrkStep() step {
	ones := make([]float64, blasCols)
	for i := range ones {
		ones[i] = 1
	}
	return step{
		name: "syrk", layer: "flashr",
		draw: func(rng *rand.Rand) params { return params{scalars: perturbed(rng, ones)} },
		run: func(s *flashr.Session, d *dataset, p params) (values, error) {
			v := s.Small(dense.FromSlice(1, blasCols, p.scalars))
			g, err := flashr.CrossProd(flashr.Sweep(d.x, 2, v, "*")).AsDense()
			if err != nil {
				return nil, err
			}
			return values{{"gram", g.Data}}, nil
		},
		check:     func(v values, _ *dataset, _ params) error { return symmetric(v.get("gram"), blasCols, 0) },
		ref:       func(d *denseData, p params) values { return refSyrk(d.x, p.scalars) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) },
		// Syrk does half of a full Gramian's 2np² flops, plus the sweep.
		flops: func(d *dataset) float64 { return float64(d.x.NRow()) * blasCols * (blasCols + 2) },
	}
}

func gemmTAStep() step {
	return step{
		name: "gemm_ta", layer: "flashr",
		draw: func(rng *rand.Rand) params { return params{mat: randMat(rng, blasCols, gemmTACols, 1.0/16)} },
		run: func(s *flashr.Session, d *dataset, p params) (values, error) {
			g, err := flashr.CrossProd2(d.x, flashr.MatMul(d.x, s.Small(p.mat))).AsDense()
			if err != nil {
				return nil, err
			}
			return values{{"xtxc", g.Data}}, nil
		},
		ref:       func(d *denseData, p params) values { return refGemmTA(d.x, p.mat) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) },
		flops:     func(d *dataset) float64 { return 4 * float64(d.x.NRow()) * blasCols * gemmTACols },
	}
}

// ---- array-bound steps (em_scan, em_writeback) ----

const thresholds = 4

func thresholdStep() step {
	grid := []float64{0.2, 0.4, 0.6, 0.8}
	return step{
		name: "threshold_counts", layer: "flashr",
		draw: func(rng *rand.Rand) params { return params{scalars: perturbed(rng, grid)} },
		run: func(_ *flashr.Session, d *dataset, p params) (values, error) {
			// Four separately forced passes: each call reads X once and does
			// one comparison and one add per element.
			var out values
			for i, c := range p.scalars {
				cnt, err := flashr.ColSums(flashr.Gt(d.x, c)).AsVector()
				if err != nil {
					return nil, err
				}
				out = append(out, named{fmt.Sprintf("gt%d", i), cnt})
			}
			return out, nil
		},
		check: func(v values, d *dataset, _ params) error {
			for _, nv := range v {
				for j, c := range nv.v {
					if c < 0 || c > float64(d.x.NRow()) || c != math.Trunc(c) {
						return fmt.Errorf("%s[%d] = %v is not a count of at most %d rows", nv.name, j, c, d.x.NRow())
					}
				}
			}
			return nil
		},
		ref:       func(d *denseData, p params) values { return refThresholds(d.x, p.scalars) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) },
	}
}

func mapSaveStep() step {
	return step{
		name: "map_save_readback", layer: "flashr",
		draw: func(rng *rand.Rand) params {
			return params{scalars: []float64{1 + perturbSD*rng.NormFloat64(), perturbSD * rng.NormFloat64()}}
		},
		run: func(_ *flashr.Session, d *dataset, p params) (values, error) {
			z := flashr.Sigmoid(flashr.Add(flashr.Mul(d.x, p.scalars[0]), p.scalars[1])).SetCache(true)
			fused := flashr.ColSums(z) // pending sink: rides the pass that saves z
			if err := z.MaterializeCtx(context.Background()); err != nil {
				return nil, err
			}
			fv, err := fused.AsVector()
			if err != nil {
				return nil, err
			}
			// Read z back from the array: sums of z/2, a different DAG from the
			// fused sink over the now materialized z (safs.read_mb shows the
			// pass does read it: 3 × X per round).
			back, err := flashr.ColSums(flashr.Mul(z, 0.5)).AsVector()
			if err != nil {
				return nil, err
			}
			if err := z.Free(); err != nil {
				return nil, err
			}
			return values{{"fused", fv}, {"readback_half", back}}, nil
		},
		check: func(v values, _ *dataset, _ params) error {
			fused, back := v.get("fused"), v.get("readback_half")
			for j := range fused {
				if math.Abs(2*back[j]-fused[j]) > 1e-9*math.Abs(fused[j]) {
					return fmt.Errorf("read-back column %d sums to %v, fused pass said %v", j, 2*back[j], fused[j])
				}
			}
			return nil
		},
		ref:       func(d *denseData, p params) values { return refMapSave(d.x, p.scalars[0], p.scalars[1]) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) },
	}
}

func cumsumSaveStep() step {
	return step{
		name: "cumsum_save", layer: "flashr",
		draw: func(rng *rand.Rand) params {
			return params{scalars: []float64{1 + perturbSD*rng.NormFloat64()}}
		},
		run: func(_ *flashr.Session, d *dataset, p params) (values, error) {
			c := flashr.Cumsum(flashr.Mul(d.x, p.scalars[0]))
			total := flashr.ColSums(flashr.Mul(d.x, p.scalars[0])) // fused into the same pass
			if err := c.MaterializeCtx(context.Background()); err != nil {
				return nil, err
			}
			tv, err := total.AsVector()
			if err != nil {
				return nil, err
			}
			last, err := flashr.GetRows(c, []int64{c.NRow() - 1})
			if err != nil {
				return nil, err
			}
			if err := c.Free(); err != nil {
				return nil, err
			}
			return values{{"last_row", last.Data}, {"total", tv}}, nil
		},
		check: func(v values, _ *dataset, _ params) error {
			// The running sum's last row is the column total; the two are
			// accumulated in different orders, hence the tolerance.
			last, total := v.get("last_row"), v.get("total")
			for j := range last {
				if math.Abs(last[j]-total[j]) > 1e-9*math.Abs(total[j]) {
					return fmt.Errorf("cumsum column %d ends at %v, column total is %v", j, last[j], total[j])
				}
			}
			return nil
		},
		ref:       func(d *denseData, p params) values { return refCumsum(d.x, p.scalars[0]) },
		leafBytes: func(d *dataset) int64 { return bytesOf(d.x) },
	}
}
