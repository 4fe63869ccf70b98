package flashr

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Differential equivalence harness for the hash-consed engine: a seeded
// random program is executed under every combination of
// {FuseNone, FuseMem, FuseCache} × {CSE on, off}, and every configuration
// must produce bit-identical results. Each session runs
// the program twice over the same leaf, so the second run exercises the
// cross-materialize result cache on exactly the values the first run
// computed.
//
// Sink partials merge in task order, so at a fixed worker count and
// partition size a real-valued sum is bit-stable across fusion levels, CSE
// and EM; sharded execution regroups it. Integer sums are exact under any
// grouping below 2^53. The program therefore fingerprints most sums through
// Round, keeps raw floats for the order-insensitive min/max sinks and for
// tall outputs (elementwise, deterministic by construction), and checks one
// real-valued sum in a separate float channel. The value ranges below keep
// every rounded sum far under 2^53.

// equivConfig is one point of the equivalence grid.
type equivConfig struct {
	name       string
	fuse       FuseLevel
	disableCSE bool
	em         bool
	// shards > 0 runs the session with in-process sharded execution: the
	// distributed path must fingerprint bit-identically to local execution
	// (carry-seeded cumulative folds included). Only the float channel is
	// compared within a tolerance, because per-shard partials regroup a
	// real-valued sum.
	shards int
	// Crash schedule: kill -9 + restart worker crashWorker before/after the
	// Nth exec it receives (1-based). The coordinator must fence, replay
	// lineage, and still fingerprint bit-identically — the recovery path is
	// held to the same equivalence gate as the happy path.
	crashWorker int
	crashBefore []int64
	crashAfter  []int64
}

func (c equivConfig) hasCrash() bool {
	return len(c.crashBefore)+len(c.crashAfter) > 0
}

func equivGrid(em bool) []equivConfig {
	var grid []equivConfig
	for _, fuse := range []FuseLevel{FuseCache, FuseMem, FuseNone} {
		for _, cse := range []bool{false, true} {
			grid = append(grid, equivConfig{
				name:       fmt.Sprintf("fuse=%v/cse=%t", fuse, !cse),
				fuse:       fuse,
				disableCSE: cse,
			})
		}
	}
	// Sharded execution axis: the same program row-partitioned across 2 and 4
	// in-process workers, plus sharding with CSE ablated and under per-op
	// (FuseNone) materialization.
	grid = append(grid, shardGrid()[1:]...)
	if em {
		grid = append(grid,
			equivConfig{name: "em/cache/cse-on", fuse: FuseCache, em: true},
			equivConfig{name: "em/cache/cse-off", fuse: FuseCache, disableCSE: true, em: true},
		)
	}
	return grid
}

// shardGrid is the trimmed grid of the sharded-equivalence fuzz target: a
// local baseline plus the distributed configurations. Entry 0 is the
// baseline; the rest also ride along in the full equivGrid.
func shardGrid() []equivConfig {
	return []equivConfig{
		{name: "local/cache", fuse: FuseCache},
		{name: "shard=2/cache", fuse: FuseCache, shards: 2},
		{name: "shard=4/cache", fuse: FuseCache, shards: 4},
		{name: "shard=2/cse-off", fuse: FuseCache, disableCSE: true, shards: 2},
		{name: "shard=2/fuse=none", fuse: FuseNone, shards: 2},
		// Crash-schedule axis: a seeded worker kill/restart at exec
		// boundaries must not perturb a single bit of the fingerprint.
		// Crashing workers are limited to 0 and 1 — with the minimum program
		// size (n ≥ 300, part-rows 256) only the first two workers are
		// guaranteed rows, and a schedule that never fires is asserted fatal.
		{name: "shard=2/crash-w1-before-exec1", fuse: FuseCache, shards: 2,
			crashWorker: 1, crashBefore: []int64{1}},
		{name: "shard=2/crash-w0-after-exec1", fuse: FuseCache, shards: 2,
			crashWorker: 0, crashAfter: []int64{1}},
		{name: "shard=4/crash-w1-before-exec2", fuse: FuseCache, shards: 4,
			crashWorker: 1, crashBefore: []int64{2}},
	}
}

// buildEquivExpr builds a deterministic random elementwise expression over x.
// Ops are chosen to keep magnitudes bounded (no exp/log/div) so rounded sums
// stay exactly representable.
func buildEquivExpr(rng *rand.Rand, x *FM, depth int) *FM {
	if depth <= 0 {
		return x
	}
	switch rng.Intn(13) {
	case 0:
		return Abs(buildEquivExpr(rng, x, depth-1))
	case 1:
		return Neg(buildEquivExpr(rng, x, depth-1))
	case 2:
		return Sign(buildEquivExpr(rng, x, depth-1))
	case 3:
		return Sqrt(Abs(buildEquivExpr(rng, x, depth-1)))
	case 4:
		return Sigmoid(buildEquivExpr(rng, x, depth-1))
	case 5:
		return Round(buildEquivExpr(rng, x, depth-1))
	case 6:
		a := buildEquivExpr(rng, x, depth-1)
		b := buildEquivExpr(rng, x, depth-1)
		return Add(a, b)
	case 7:
		a := buildEquivExpr(rng, x, depth-1)
		b := buildEquivExpr(rng, x, depth-1)
		return Sub(a, b)
	case 8:
		a := buildEquivExpr(rng, x, depth-1)
		b := buildEquivExpr(rng, x, depth-1)
		return Mul(a, b)
	case 9:
		a := buildEquivExpr(rng, x, depth-1)
		b := buildEquivExpr(rng, x, depth-1)
		return Pmin(a, b)
	case 10:
		a := buildEquivExpr(rng, x, depth-1)
		b := buildEquivExpr(rng, x, depth-1)
		return Pmax(a, b)
	case 11:
		return Mul(buildEquivExpr(rng, x, depth-1), float64(rng.Intn(9))-4)
	default:
		return Cumsum(buildEquivExpr(rng, x, depth-1))
	}
}

// runEquivProgram executes the seeded program once over the shared leaf x and
// returns its result fingerprint as float64 bit patterns, plus a separate
// float channel for real-valued sums. Local configurations must reproduce the
// float channel bit for bit; sharded ones only to within rounding, because
// per-shard partials regroup the sum. Expressions are rebuilt from scratch
// each run — structurally identical, new node objects — which is exactly what
// iterative algorithms do per iteration.
func runEquivProgram(t testing.TB, x *FM, progSeed int64) ([]uint64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(progSeed))
	e1 := buildEquivExpr(rng, x, 3)
	e2 := buildEquivExpr(rng, x, 3)
	// An identical twin of e1 from a fresh RNG with the same seed: the
	// engine must CSE it, a CSE-free engine must recompute it — either way
	// the bits must agree.
	e1b := buildEquivExpr(rand.New(rand.NewSource(progSeed)), x, 3)

	z, zb := Sum(Round(e1)), Sum(Round(e1b))
	mx, mn := Max(e2), Min(e2)
	cs := ColSums(Round(e2))
	// A scalar multiply under an integer-exact sum.
	z3 := Sum(Mul(Round(e1), 3.0))
	// A column selection of the left input of a cbind.
	_, p := x.Dim()
	left := make([]int, p)
	for i := range left {
		left[i] = i
	}
	half := ColSums(GetCols(Cbind(Round(e1), Round(e2)), left))
	// A single-column selection above a scalar multiply.
	col0 := ColSums(GetCols(Mul(Round(e2), 2.0), []int{0}))
	// A crossprod of structurally identical but distinct operands, which CSE
	// unifies. Sign keeps entries in {-1,0,1} so the p×p accumulations are
	// exact whatever the partition order.
	xp := CrossProd2(Sign(e1), Sign(e1b))
	// A real-valued sum (float channel).
	ff := Sum(Mul(e2, 0.3))

	var fp []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			fp = append(fp, math.Float64bits(v))
		}
	}
	vz, err := z.Float() // one fused pass materializes every pending sink
	if err != nil {
		t.Fatal(err)
	}
	vzb, err := zb.Float()
	if err != nil {
		t.Fatal(err)
	}
	vmx, err := mx.Float()
	if err != nil {
		t.Fatal(err)
	}
	vmn, err := mn.Float()
	if err != nil {
		t.Fatal(err)
	}
	vz3, err := z3.Float()
	if err != nil {
		t.Fatal(err)
	}
	add(vz, vzb, vmx, vmn, vz3)
	csv, err := cs.AsVector()
	if err != nil {
		t.Fatal(err)
	}
	add(csv...)
	dcv, err := half.AsVector()
	if err != nil {
		t.Fatal(err)
	}
	add(dcv...)
	pdv, err := col0.AsVector()
	if err != nil {
		t.Fatal(err)
	}
	add(pdv...)
	xpd, err := xp.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	add(xpd.Data...)
	d1, err := e1.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	add(d1.Data...)
	d1b, err := e1b.AsDense() // cache-served when CSE is on
	if err != nil {
		t.Fatal(err)
	}
	add(d1b.Data...)
	vff, err := ff.Float()
	if err != nil {
		t.Fatal(err)
	}
	return fp, []float64{vff}
}

// checkEquivalence runs the seeded program twice under every grid
// configuration and asserts all fingerprints are bit-identical, that CSE-on
// sessions actually unified and cache-served work, and that CSE-off sessions
// did neither.
func checkEquivalence(t testing.TB, seed int64, em bool) {
	checkEquivalenceGrid(t, seed, equivGrid(em))
}

func checkEquivalenceGrid(t testing.TB, seed int64, grid []equivConfig) {
	rng := rand.New(rand.NewSource(seed))
	n := int64(300 + rng.Intn(2200))
	p := 1 + rng.Intn(4)
	dataSeed := rng.Int63()
	progSeed := rng.Int63()

	var refName string
	var ref []uint64
	var refTol []float64
	for _, cfg := range grid {
		opts := Options{
			Workers: 4, PartRows: 256, Fuse: cfg.fuse,
			DisableCSE: cfg.disableCSE,
		}
		var chaos []*shard.ChaosTransport
		if cfg.shards > 0 {
			sc := ShardConfig{Shards: cfg.shards}
			if cfg.hasCrash() {
				sc.Retries = 8
				sc.RetryBackoff = time.Millisecond
				sc.WrapTransport = func(wi int, tr shard.Transport) shard.Transport {
					if wi != cfg.crashWorker {
						return tr
					}
					ct, err := shard.NewChaosTransport(tr, shard.ChaosConfig{
						Worker:          core.Config{Workers: opts.Workers, PartRows: opts.PartRows},
						CrashBeforeExec: cfg.crashBefore,
						CrashAfterExec:  cfg.crashAfter,
					})
					if err != nil {
						t.Fatal(err)
					}
					chaos = append(chaos, ct)
					return ct
				}
			}
			opts.Sharding = &sc
		}
		if cfg.em {
			dir := t.(interface{ TempDir() string }).TempDir()
			opts.EM = true
			opts.SSDDirs = []string{filepath.Join(dir, "d0"), filepath.Join(dir, "d1")}
		}
		s, err := NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		x, err := s.GenerateSeeded(n, p, dataSeed, func(rng *rand.Rand, row []float64) {
			for i := range row {
				row[i] = rng.Float64()*4 - 2
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		fp1, tol1 := runEquivProgram(t, x, progSeed)
		fp2, tol2 := runEquivProgram(t, x, progSeed)
		for i := range fp1 {
			if fp1[i] != fp2[i] {
				t.Fatalf("seed %d [%s]: run 2 diverged from run 1 at word %d: %016x vs %016x",
					seed, cfg.name, i, fp2[i], fp1[i])
			}
		}
		for i := range tol1 {
			if math.Float64bits(tol1[i]) != math.Float64bits(tol2[i]) {
				t.Fatalf("seed %d [%s]: run 2 float channel %d = %v, run 1 = %v",
					seed, cfg.name, i, tol2[i], tol1[i])
			}
		}
		ms := s.TotalMaterializeStats()
		if cfg.disableCSE {
			if ms.CSEUnifications != 0 || ms.CacheHits != 0 {
				t.Fatalf("seed %d [%s]: CSE disabled but cse=%d hits=%d",
					seed, cfg.name, ms.CSEUnifications, ms.CacheHits)
			}
		} else {
			// The duplicate sink unifies in run 1; run 2 rebuilds cached
			// structures, so hits are guaranteed.
			if ms.CSEUnifications == 0 {
				t.Fatalf("seed %d [%s]: no CSE unifications for a program with a duplicate sink", seed, cfg.name)
			}
			if ms.CacheHits == 0 {
				t.Fatalf("seed %d [%s]: no cache hits across two identical runs", seed, cfg.name)
			}
		}
		// Sharded sessions must actually execute remotely (and local ones must
		// not): ShardPasses is nonzero exactly when sharding is configured.
		if cfg.shards > 0 && ms.ShardPasses == 0 {
			t.Fatalf("seed %d [%s]: sharding configured but no worker passes ran", seed, cfg.name)
		}
		if cfg.shards == 0 && ms.ShardPasses != 0 {
			t.Fatalf("seed %d [%s]: local session recorded %d shard passes", seed, cfg.name, ms.ShardPasses)
		}
		// A crash schedule that never fires tests nothing: every chaos
		// transport must have crashed at least once, and the coordinator must
		// have recovered (fenced, re-helloed, replayed) at least as often.
		if cfg.hasCrash() {
			if len(chaos) == 0 {
				t.Fatalf("seed %d [%s]: crash schedule configured but no chaos transport installed", seed, cfg.name)
			}
			var crashes int64
			for _, ct := range chaos {
				crashes += ct.Crashes()
			}
			if crashes == 0 {
				t.Fatalf("seed %d [%s]: crash schedule never fired", seed, cfg.name)
			}
			if rec := s.Coordinator().Recoveries(); rec < crashes {
				t.Fatalf("seed %d [%s]: %d crashes but only %d recoveries", seed, cfg.name, crashes, rec)
			}
		}
		if ref == nil {
			refName, ref, refTol = cfg.name, fp1, tol1
		} else {
			if len(fp1) != len(ref) {
				t.Fatalf("seed %d [%s]: fingerprint length %d != %d (%s)",
					seed, cfg.name, len(fp1), len(ref), refName)
			}
			for i := range ref {
				if fp1[i] != ref[i] {
					t.Fatalf("seed %d [%s]: word %d = %016x, want %016x (%s)",
						seed, cfg.name, i, fp1[i], ref[i], refName)
				}
			}
			for i := range refTol {
				if cfg.shards == 0 {
					if math.Float64bits(tol1[i]) != math.Float64bits(refTol[i]) {
						t.Fatalf("seed %d [%s]: float channel %d = %v, want %v bit for bit (%s)",
							seed, cfg.name, i, tol1[i], refTol[i], refName)
					}
				} else if d := math.Abs(tol1[i] - refTol[i]); d > 1e-6+1e-9*math.Abs(refTol[i]) {
					t.Fatalf("seed %d [%s]: float channel %d = %v, want %v±tol (%s)",
						seed, cfg.name, i, tol1[i], refTol[i], refName)
				}
			}
		}
		s.Close()
	}
}

// TestDAGEquivalenceGrid is the deterministic slice of the harness (several
// seeds, EM configurations included).
func TestDAGEquivalenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence grid is slow under -short with -race")
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkEquivalence(t, seed, true)
		})
	}
}

// TestDAGEquivalenceGridShort keeps one in-memory seed in the -short / -race
// tier so the equivalence property is exercised on every CI run.
func TestDAGEquivalenceGridShort(t *testing.T) {
	checkEquivalence(t, 99, false)
}

// FuzzDAGEquivalence feeds arbitrary seeds through the harness (in-memory
// grid only; EM runs in the deterministic test above).
func FuzzDAGEquivalence(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 1<<40 + 7, -3} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEquivalence(t, seed, false)
	})
}

// TestShardEquivalenceGrid is the deterministic slice of the sharded axis:
// seeded programs through the trimmed local-vs-sharded grid.
func TestShardEquivalenceGrid(t *testing.T) {
	for seed := int64(11); seed <= 13; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkEquivalenceGrid(t, seed, shardGrid())
		})
	}
}

// FuzzShardEquivalence feeds arbitrary seeds through the trimmed sharded
// grid: single-engine vs 2- and 4-shard in-process execution must be
// bit-identical for tall results and integer sums, and agree to within
// rounding on the real-valued sum, whose per-shard partials regroup it.
func FuzzShardEquivalence(f *testing.F) {
	for _, s := range []int64{0, 7, 42, 1<<33 + 5, -11} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEquivalenceGrid(t, seed, shardGrid())
	})
}

// TestShardUnifiedCumsum pins the CSE×sharding interaction: when one
// expression references the same cumulative subexpression twice, the plan
// unifies the two cum.col nodes onto one slot and only the representative
// publishes carries. The encoded program must collapse the duplicate the
// same way — encoding it as a second node would leave it unseeded on every
// shard but the first (it would restart from the fold identity instead of
// the threaded carry). Found by the equivalence fuzzer at grid seed 2.
func TestShardUnifiedCumsum(t *testing.T) {
	run := func(shards int, build func(x *FM) []*FM) [][]float64 {
		opts := Options{Workers: 4, PartRows: 256}
		if shards > 0 {
			opts.Sharding = &ShardConfig{Shards: shards}
		}
		s, err := NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		x, err := s.GenerateSeeded(1000, 3, 99, func(rng *rand.Rand, row []float64) {
			for i := range row {
				row[i] = rng.Float64()*4 - 2
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for _, e := range build(x) {
			d, err := e.AsDense()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d.Data)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		build func(x *FM) []*FM
	}{
		{"two-consumer-cum", func(x *FM) []*FM {
			// Cumsum(x) twice in one expression: unified onto one node with
			// two consumers.
			return []*FM{Sum(Round(Add(Cumsum(x), Abs(Cumsum(x)))))}
		}},
		{"seed2-shape", func(x *FM) []*FM {
			e := Sub(Mul(Sigmoid(x), Cumsum(x)), Sqrt(Abs(Cumsum(x))))
			return []*FM{Sum(Round(e))}
		}},
		{"twin-dense-talls", func(x *FM) []*FM {
			// Structurally identical dense targets: with sharding they unify
			// onto one program index but must keep independent handles.
			e := Mul(Cumsum(x), Neg(Abs(x)))
			eb := Mul(Cumsum(x), Neg(Abs(x)))
			return []*FM{e, eb, Sum(Round(e))}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(0, tc.build)
			got := run(2, tc.build)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("result %d: %d values, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("result %d value %d: shard %v, local %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// The ablation gate below runs one program twice on the external-memory
// path, with CSE on and off, and compares outputs and I/O. EM makes leaf
// reads visible in BytesRead. Both arms run four workers over the same
// 256-row partitions, and sink partials merge in task order, so both arms
// group every sum identically and real-valued outputs stay bitwise.

// emArm runs prog in a fresh four-worker EM session built from opts and
// returns its outputs and the session's stats.
func emArm(t *testing.T, opts Options, prog func(s *Session) []float64) ([]float64, MaterializeStats) {
	t.Helper()
	dir := t.TempDir()
	opts.Workers, opts.PartRows, opts.EM = 4, 256, true
	opts.SSDDirs = []string{filepath.Join(dir, "d0"), filepath.Join(dir, "d1")}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := prog(s)
	return out, s.TotalMaterializeStats()
}

// normLeaf generates an n×p matrix of standard normals.
func normLeaf(t *testing.T, s *Session, n int64, p int, seed int64) *FM {
	t.Helper()
	x, err := s.GenerateSeeded(n, p, seed, func(rng *rand.Rand, row []float64) {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// values forces m and returns its elements.
func values(t *testing.T, m *FM) []float64 {
	t.Helper()
	d, err := m.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	return d.Data
}

// sameOutputs compares two arms' outputs bitwise.
func sameOutputs(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d = %v, want %v (bitwise)", label, i, got[i], want[i])
		}
	}
}

// TestCSEAblationEM is the iterative hash-consing gate. Each iteration
// forces an iteration-invariant sum twice in one flush, so the duplicate
// must unify and later iterations must be served from the result cache,
// then an iteration-dependent sum the cache must never serve. Every output
// stays bitwise.
func TestCSEAblationEM(t *testing.T) {
	const n, p, iters = 3000, 4, 3
	prog := func(s *Session) []float64 {
		x := normLeaf(t, s, n, p, 31)
		var out []float64
		for it := 0; it < iters; it++ {
			a, b := Sum(Sqrt(Abs(x))), Sum(Sqrt(Abs(x)))
			out = append(out, values(t, a)...)
			out = append(out, values(t, b)...)
			out = append(out, values(t, Sum(Mul(x, float64(it+1))))...)
		}
		return out
	}
	on, onStats := emArm(t, Options{}, prog)
	off, offStats := emArm(t, Options{DisableCSE: true}, prog)
	sameOutputs(t, "cse on vs off", on, off)
	if onStats.CSEUnifications == 0 || onStats.CacheHits == 0 {
		t.Fatalf("CSE-on run recorded cse=%d hits=%d, want both > 0", onStats.CSEUnifications, onStats.CacheHits)
	}
	if offStats.CSEUnifications != 0 || offStats.CacheHits != 0 {
		t.Fatalf("CSE-off run recorded cse=%d hits=%d", offStats.CSEUnifications, offStats.CacheHits)
	}
	if onStats.BytesRead >= offStats.BytesRead {
		t.Fatalf("CSE-on read %d bytes, not fewer than CSE-off's %d", onStats.BytesRead, offStats.BytesRead)
	}
	if onStats.NodesExecuted >= offStats.NodesExecuted {
		t.Fatalf("CSE-on executed %d nodes, not fewer than CSE-off's %d", onStats.NodesExecuted, offStats.NodesExecuted)
	}
}
