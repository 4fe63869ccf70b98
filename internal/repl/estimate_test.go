package repl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	flashr "repro"
)

// estimate prices a newline-separated program on e.
func estimate(t *testing.T, e *Env, program string) (Estimate, bool) {
	t.Helper()
	return e.EstimateProgram(strings.Split(program, "\n"))
}

func TestEstimateCreationBytes(t *testing.T) {
	e := env(t)
	est, ok := estimate(t, e, "x <- runif.matrix(1000, 10, 0, 1, 7)")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if est.WorkBytes != 1000*10*8 {
		t.Errorf("WorkBytes = %d, want %d", est.WorkBytes, 1000*10*8)
	}
	if est.ResultBytes != 0 {
		t.Errorf("ResultBytes = %d for an assignment, want 0", est.ResultBytes)
	}
}

func TestEstimateConstantPropagation(t *testing.T) {
	e := env(t)
	// n flows through arithmetic into the creation call; the printed matrix
	// counts toward ResultBytes as well as WorkBytes.
	est, ok := estimate(t, e, "n <- 250\nx <- runif.matrix(n * 2, 2, 0, 1, 7)\nx")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if est.WorkBytes != 500*2*8 {
		t.Errorf("WorkBytes = %d, want %d", est.WorkBytes, 500*2*8)
	}
	if est.ResultBytes != 500*2*8 {
		t.Errorf("ResultBytes = %d, want %d", est.ResultBytes, 500*2*8)
	}
}

func TestEstimateDimPropagation(t *testing.T) {
	e := env(t)
	// nrow of a known matrix is a constant the next creation call can use.
	est, ok := estimate(t, e, "x <- runif.matrix(100, 4, 0, 1, 7)\ny <- ones(nrow(x), 3)\nsum(y)")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	want := int64(100*4*8 + 100*3*8)
	if est.WorkBytes != want {
		t.Errorf("WorkBytes = %d, want %d", est.WorkBytes, want)
	}
	if est.ResultBytes != 0 {
		t.Errorf("ResultBytes = %d, want 0 (sum renders as text)", est.ResultBytes)
	}
}

func TestEstimateMatMulShapes(t *testing.T) {
	e := env(t)
	est, ok := estimate(t, e, "a <- runif.matrix(100, 10, 0, 1, 1)\nb <- runif.matrix(100, 5, 0, 1, 2)\nc <- t(a) %*% b")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	// a: 100×10, b: 100×5, t(a) is a view (no bytes), product: a 10×5 sink.
	want := int64(100*10*8 + 100*5*8 + 10*5*8)
	if est.WorkBytes != want {
		t.Errorf("WorkBytes = %d, want %d", est.WorkBytes, want)
	}
}

func TestEstimateSeededFromEnvironment(t *testing.T) {
	e := env(t)
	if _, err := e.Eval("x <- runif.matrix(64, 4, 0, 1, 7)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval("k <- 3"); err != nil {
		t.Fatal(err)
	}
	// x and k come from live bindings, not the program text.
	est, ok := estimate(t, e, "y <- x * x\nz <- ones(k, k)\nsum(y)")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	want := int64(64*4*8 + 3*3*8)
	if est.WorkBytes != want {
		t.Errorf("WorkBytes = %d, want %d", est.WorkBytes, want)
	}
}

func TestEstimateUnavailable(t *testing.T) {
	e := env(t)
	if _, err := e.Eval("x <- runif.matrix(64, 4, 0, 1, 7)"); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "x.csv")
	for _, program := range []string{
		"y <- unknown.function(x)",              // unmodeled call
		"z + 1",                                 // unbound identifier
		"y <- table(x)",                         // data-dependent shape
		"y <- runif.matrix(nosuch, 2, 0, 1, 7)", // non-constant dimension
		"x + runif.matrix(64, 1, 0, 1, 7)",      // eval rejects column recycling
		"x %*% colSums(x)",                      // 64x4 by 1x4
		"x[1, 2]",                               // reads data
		`load.dense("f")`,                       // reads a file
		`save.csv(x, "` + saved + `")`,          // writes a file
	} {
		if est, ok := estimate(t, e, program); ok {
			t.Errorf("estimate(%q) = %+v, want unavailable", program, est)
		}
	}
	if _, err := os.Stat(saved); !os.IsNotExist(err) {
		t.Errorf("estimating save.csv touched %s: %v", saved, err)
	}
	// A parse error is also "no estimate", not a panic.
	if _, ok := estimate(t, e, "x <-"); ok {
		t.Error("estimate of unparsable program reported ok")
	}
}

// TestEstimatePartialLowerBound: a program without an estimate still
// reports the bytes of the statements before the failing one.
func TestEstimatePartialLowerBound(t *testing.T) {
	e := env(t)
	for _, read := range []string{"head(z)", "z[1, 1]"} {
		est, ok := estimate(t, e, "z <- runif.matrix(1e9, 100, 0, 1, 1)\n"+read)
		if ok {
			t.Fatalf("%s: estimate available for a value read", read)
		}
		if est.WorkBytes != 1e9*100*8 {
			t.Errorf("%s: WorkBytes = %d, want %d", read, est.WorkBytes, int64(1e9*100*8))
		}
	}
}

// TestEstimateSaturates: byte counts of absurd shapes saturate instead of
// wrapping negative and slipping under a quota.
func TestEstimateSaturates(t *testing.T) {
	e := env(t)
	est, ok := estimate(t, e, "runif.matrix(4e9, 4e9, 0, 1, 1)")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if est.ResultBytes != math.MaxInt64 || est.WorkBytes != math.MaxInt64 {
		t.Errorf("estimate = %+v, want both byte counts at MaxInt64", est)
	}
}

// TestEstimateBoundsInMemoryWork: products and concatenations of small
// matrices run for real on the plan session, so their cost is capped over
// the whole program. A program past the cap prices as unbounded, and
// pricing it allocates a bounded amount.
func TestEstimateBoundsInMemoryWork(t *testing.T) {
	e := env(t)
	cs := strings.TrimSuffix(strings.Repeat("c, ", 8), ", ")
	for _, program := range []string{
		// 1×4e6 placeholders, concatenated pairwise into ever wider smalls.
		"c <- colSums(runif.matrix(2, 4e6, 0, 1, 1))\ncbind(" + cs + ")",
		// 2000×2000 zeros multiplied: 8e9 multiply-adds per product.
		"a <- crossprod(runif.matrix(2, 2000, 0, 1, 1))\nb <- a %*% a\nb %*% a",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		est, ok := estimate(t, e, program)
		runtime.ReadMemStats(&after)
		if ok || est.WorkBytes != math.MaxInt64 {
			t.Errorf("%q: estimate %+v ok=%v, want unavailable with WorkBytes at MaxInt64", program, est, ok)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<20 {
			t.Errorf("%q: pricing allocated %d MiB", program, alloc>>20)
		}
	}
}

func TestEstimateReductionsAndViews(t *testing.T) {
	e := env(t)
	est, ok := estimate(t, e, "x <- runif.matrix(200, 5, 0, 1, 7)\nrowSums(x)\ncolSums(x)\nmax(x)")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	// rowSums: 200×1 printed; colSums: 1×5 printed; max: scalar text.
	wantWork := int64(200*5*8 + 200*8 + 5*8)
	if est.WorkBytes != wantWork {
		t.Errorf("WorkBytes = %d, want %d", est.WorkBytes, wantWork)
	}
	wantRes := int64(200*8 + 5*8)
	if est.ResultBytes != wantRes {
		t.Errorf("ResultBytes = %d, want %d", est.ResultBytes, wantRes)
	}
}

// TestEstimateLeavesLiveSessionAlone: pricing a program that forces a live
// pending sink, builds sinks over a live virtual matrix and marks it
// set.cache runs no pass, queues nothing on the live session and leaves the
// bindings and the cache flag as they were — so the next real evaluation
// runs exactly what it runs on a twin env that never estimated.
func TestEstimateLeavesLiveSessionAlone(t *testing.T) {
	setup := []string{"x <- runif.matrix(600, 4, 0, 1, 7) * 2", "c0 <- colSums(x)"}
	twin := func() *Env {
		e := env(t)
		for _, src := range setup {
			if _, err := e.Eval(src); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	a, b := twin(), twin()
	x, c0 := a.vars["x"], a.vars["c0"]
	fmX, fmC0 := *x.Mat, *c0.Mat

	est, ok := estimate(t, a, "y <- x + 1\ns <- sum(y)\ncs <- colSums(x)\nset.cache(x)\nx %*% t(c0)\ncrossprod(x)")
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if est.ResultBytes != 600*4*8+600*8+4*4*8 { // set.cache(x) prints x
		t.Errorf("ResultBytes = %d, want %d", est.ResultBytes, 600*4*8+600*8+4*4*8)
	}
	if p := a.S.TotalMaterializeStats().Passes; p != 0 {
		t.Fatalf("estimate ran %d passes", p)
	}
	if len(a.vars) != 2 || a.vars["x"] != x || a.vars["c0"] != c0 || *x.Mat != fmX || *c0.Mat != fmC0 {
		t.Fatal("estimate changed the live bindings")
	}
	if !x.Mat.IsVirtual() || !c0.Mat.IsVirtual() {
		t.Fatal("estimate materialized a live matrix")
	}

	run := func(e *Env) flashr.MaterializeStats {
		if _, err := e.Eval("s <- sum(x)"); err != nil {
			t.Fatal(err)
		}
		if err := e.S.FlushCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return e.S.TotalMaterializeStats()
	}
	sa, sb := run(a), run(b)
	if sa.Passes != sb.Passes || sa.NodesExecuted != sb.NodesExecuted {
		t.Errorf("after estimating: %d passes, %d nodes; twin: %d passes, %d nodes",
			sa.Passes, sa.NodesExecuted, sb.Passes, sb.NodesExecuted)
	}
	if a.vars["x"].Mat.IsVirtual() != b.vars["x"].Mat.IsVirtual() {
		t.Error("x's cache flag differs from the twin's: set.cache leaked into the live session")
	}
	if a.vars["c0"].Mat.IsVirtual() || b.vars["c0"].Mat.IsVirtual() {
		t.Error("the live pending sink c0 was not flushed with the batch")
	}
}

// progGen draws programs from a grammar of creations, element-wise ops, t,
// %*%, crossprod, row/col/whole reductions, cbind, sweep and dim over the
// live matrix x. Operands are drawn without regard to shape, so some
// programs are shape errors. With reads set it also draws value reads.
type progGen struct {
	r     *rand.Rand
	vars  []string
	reads bool // the program contains a value read
}

func (g *progGen) create() string {
	n, p := []int{64, 200}[g.r.Intn(2)], 1+g.r.Intn(4)
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("runif.matrix(%d, %d, 0, 1, %d)", n, p, g.r.Intn(9))
	case 1:
		return fmt.Sprintf("rnorm.matrix(%d, %d)", n, p)
	case 2:
		return fmt.Sprintf("ones(%d, %d)", n, p)
	case 3:
		return fmt.Sprintf("zeros(%d, %d)", n, p)
	default:
		return fmt.Sprintf("seq(%d)", n)
	}
}

func (g *progGen) expr(depth int) string {
	if depth == 0 {
		if g.r.Intn(3) > 0 {
			return g.vars[g.r.Intn(len(g.vars))]
		}
		return g.create()
	}
	a := func() string { return g.expr(depth - 1) }
	switch g.r.Intn(13) {
	case 0:
		return a() + " + " + a()
	case 1:
		return "(" + a() + ") * 2"
	case 2:
		return "sqrt(abs(" + a() + "))"
	case 3:
		return "pmax(" + a() + ", " + a() + ")"
	case 4:
		return "t(" + a() + ")"
	case 5:
		return "(" + a() + ") %*% (" + a() + ")"
	case 6:
		return "crossprod(" + a() + ")"
	case 7:
		return "crossprod(" + a() + ", " + a() + ")"
	case 8:
		fns := []string{"rowSums", "colSums", "rowMeans", "colMeans", "sum", "mean", "max"}
		return fns[g.r.Intn(len(fns))] + "(" + a() + ")"
	case 9:
		return "cbind(" + a() + ", " + a() + ")"
	case 10:
		x := a()
		return fmt.Sprintf(`sweep(%s, 2, colMeans(%s), "-")`, x, x)
	case 11:
		x := a()
		return fmt.Sprintf(`sweep(%s, 1, rowSums(%s), "/")`, x, x)
	default:
		return "dim(" + a() + ")"
	}
}

func (g *progGen) program(withReads bool) []string {
	g.vars, g.reads = []string{"x"}, false
	var stmts []string
	for i, n := 0, 2+g.r.Intn(4); i < n; i++ {
		e := g.expr(g.r.Intn(3))
		if withReads && g.r.Intn(8) == 0 {
			g.reads = true
			e = []string{"head(" + e + ", 3)", "(" + e + ")[1, 1]", "as.matrix(" + e + ")"}[g.r.Intn(3)]
		}
		if g.r.Intn(3) == 0 {
			stmts = append(stmts, e)
			continue
		}
		name := fmt.Sprintf("v%d", i)
		stmts = append(stmts, name+" <- "+e)
		g.vars = append(g.vars, name)
	}
	return stmts
}

// TestEstimateMatchesEval: over seeded random programs, an available
// estimate means real evaluation on a twin env succeeds, pins exactly
// ResultBytes of printed matrices and writes no more than WorkBytes when
// the printed results are flushed; and a program that reads no values and
// evaluates cleanly always has an estimate.
func TestEstimateMatchesEval(t *testing.T) {
	const programs = 200
	g := &progGen{r: rand.New(rand.NewSource(30))}
	twin := func() *Env {
		e := env(t)
		if _, err := e.Eval("x <- runif.matrix(200, 3, 0, 1, 5)"); err != nil {
			t.Fatal(err)
		}
		return e
	}
	var estimated int
	for i := 0; i < programs; i++ {
		stmts := g.program(i%4 == 0)
		a, b := twin(), twin()
		est, ok := a.EstimateProgram(stmts)

		before := b.S.TotalMaterializeStats()
		var printed int64
		var results []*flashr.FM
		var evalErr error
		for _, src := range stmts {
			v, show, err := b.EvalStmt(src)
			if err != nil {
				evalErr = err
				break
			}
			if show && v.Mat != nil && v.Mat.Length() > 1 {
				printed += 8 * v.Mat.Length()
				results = append(results, v.Mat)
			}
		}
		prog := strings.Join(stmts, "; ")
		switch {
		case ok && evalErr != nil:
			t.Errorf("%s: estimate ok but eval failed: %v", prog, evalErr)
		case ok:
			estimated++
			if est.ResultBytes != printed {
				t.Errorf("%s: ResultBytes %d, printed matrices hold %d", prog, est.ResultBytes, printed)
			}
			if err := b.S.FlushBatchCtx(context.Background(), "", results...); err != nil {
				t.Fatalf("%s: flush: %v", prog, err)
			}
			if w := b.S.TotalMaterializeStats().BytesWritten - before.BytesWritten; est.WorkBytes < w {
				t.Errorf("%s: WorkBytes %d < %d bytes written", prog, est.WorkBytes, w)
			}
		case g.reads:
		case evalErr == nil:
			t.Errorf("%s: eval succeeded without value reads but no estimate", prog)
		}
		if ok && g.reads {
			t.Errorf("%s: a program that reads values has an estimate", prog)
		}
		a.S.Close()
		b.S.Close()
	}
	t.Logf("%d of %d programs estimated", estimated, programs)
	if estimated < programs/5 || estimated == programs {
		t.Errorf("%d of %d programs estimated: the grammar no longer exercises both outcomes", estimated, programs)
	}
}

// FuzzReplEstimate: on any program text against an env holding one live
// matrix, EstimateProgram never panics, never runs a pass, and leaves the
// live bindings and the session's pending batch unchanged.
func FuzzReplEstimate(f *testing.F) {
	for _, seed := range replSeeds {
		f.Add(seed)
	}
	e := env(f)
	if _, err := e.Eval("x <- runif.matrix(64, 4, 0, 1, 7)"); err != nil {
		f.Fatal(err)
	}
	x := e.vars["x"]
	fm := *x.Mat
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			t.Skip("serving caps program size; long inputs only slow the search")
		}
		e.EstimateProgram(strings.Split(src, "\n"))
		if p := e.S.TotalMaterializeStats().Passes; p != 0 {
			t.Fatalf("estimate ran %d passes", p)
		}
		if len(e.vars) != 1 || e.vars["x"] != x || *x.Mat != fm {
			t.Fatal("estimate changed the live bindings")
		}
		if err := e.S.FlushCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if p := e.S.TotalMaterializeStats().Passes; p != 0 {
			t.Fatal("estimate left sinks on the live session's pending batch")
		}
	})
}
