package repl

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	flashr "repro"
)

func env(t testing.TB) *Env {
	t.Helper()
	s, err := flashr.NewSession(flashr.Options{Workers: 2, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(s)
}

func evalNum(t *testing.T, e *Env, src string) float64 {
	t.Helper()
	v, err := e.Eval(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	f, err := v.number()
	if err != nil {
		t.Fatalf("eval %q: %v (%+v)", src, err, v)
	}
	return f
}

func TestScalarArithmetic(t *testing.T) {
	e := env(t)
	cases := map[string]float64{
		"1 + 2 * 3":       7,
		"(1 + 2) * 3":     9,
		"2 ^ 3 ^ 2":       512, // right-assoc
		"-2 ^ 2":          -4,  // unary binds looser than ^ in R
		"10 %% 3":         1,
		"1 < 2":           1,
		"3 <= 2":          0,
		"1 == 1 & 2 != 3": 1,
		"!1":              0,
		"1e3 + 1_000":     2000,
	}
	for src, want := range cases {
		if got := evalNum(t, e, src); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%q = %g, want %g", src, got, want)
		}
	}
}

func TestAssignmentAndVariables(t *testing.T) {
	e := env(t)
	if _, err := e.Eval("x <- 41"); err != nil {
		t.Fatal(err)
	}
	if got := evalNum(t, e, "x + 1"); got != 42 {
		t.Fatalf("x+1 = %g", got)
	}
	if _, err := e.Eval("y"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing-variable error: %v", err)
	}
	if len(e.Vars()) != 1 {
		t.Fatalf("vars %v", e.Vars())
	}
}

func TestMatrixPipeline(t *testing.T) {
	e := env(t)
	must := func(src string) Value {
		v, err := e.Eval(src)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		return v
	}
	must("x <- rnorm.matrix(5000, 4, 0, 1, 7)")
	if got := evalNum(t, e, "nrow(x)"); got != 5000 {
		t.Fatalf("nrow %g", got)
	}
	if got := evalNum(t, e, "ncol(x)"); got != 4 {
		t.Fatalf("ncol %g", got)
	}
	// Standardize and check variance ≈ 1 through pure REPL code.
	must(`centered <- sweep(x, 2, colMeans(x), "-")`)
	v := evalNum(t, e, "sum(centered * centered) / (length(x) - 1)")
	if math.Abs(v-1) > 0.05 {
		t.Fatalf("sample variance %g", v)
	}
	// Matrix multiply against a small matrix.
	must("g <- crossprod(x)")
	gv := must("g")
	if !gv.IsMatrix() || gv.Mat.NRow() != 4 {
		t.Fatalf("gramian shape")
	}
	// Elementwise chain with comparison reduction.
	frac := evalNum(t, e, "mean(abs(x) > 2)")
	if frac < 0.02 || frac > 0.08 {
		t.Fatalf("P(|x|>2) = %g", frac)
	}
	// Element access is 1-based like R.
	must("e <- x[3, 2]")
	if !must("e").isNum {
		t.Fatal("element access not scalar")
	}
	// Column selection keeps laziness.
	must("c1 <- x[, 1]")
	if got := evalNum(t, e, "ncol(c1)"); got != 1 {
		t.Fatalf("col select ncol %g", got)
	}
}

func TestGenOpsThroughREPL(t *testing.T) {
	e := env(t)
	must := func(src string) {
		if _, err := e.Eval(src); err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
	}
	// The paper's k-means iteration, written in the REPL language.
	must("x <- rnorm.matrix(3000, 4, 0, 1, 3)")
	must("centers <- head(x, 3)")
	must(`d <- inner.prod(x, t(centers), "euclidean", "+")`)
	must("i <- which.min.row(d)")
	must(`cnt <- groupby.row(ones(3000, 1), i, 3, "+")`)
	must(`sums <- groupby.row(x, i, 3, "+")`)
	must(`newc <- sweep(sums, 1, cnt, "/")`)
	v, err := e.Eval("nrow(newc)")
	if err != nil || v.Num != 3 {
		t.Fatalf("centers rows: %v %v", v, err)
	}
	total := evalNum(t, e, "sum(cnt)")
	if total != 3000 {
		t.Fatalf("counts sum %g", total)
	}
	// agg/sapply/mapply GenOps.
	must(`s <- agg.row(x, "+")`)
	if got := evalNum(t, e, `agg(x, "+")`); math.Abs(got-evalNum(t, e, "sum(s)")) > 1e-8 {
		t.Fatal("agg vs rowsum-total mismatch")
	}
	if got := evalNum(t, e, `sum(mapply(x, x, "-"))`); got != 0 {
		t.Fatalf("x-x sum %g", got)
	}
}

func TestTableUniqueCumsum(t *testing.T) {
	e := env(t)
	if _, err := e.Eval("v <- round(runif.matrix(1000, 1, 0, 3, 9))"); err != nil {
		t.Fatal(err)
	}
	tab, err := e.Eval("table(v)")
	if err != nil {
		t.Fatal(err)
	}
	if !tab.IsMatrix() || tab.Mat.NCol() != 2 {
		t.Fatal("table shape")
	}
	u, err := e.Eval("unique(v)")
	if err != nil {
		t.Fatal(err)
	}
	if u.Mat.NRow() != tab.Mat.NRow() {
		t.Fatal("unique vs table size")
	}
	last := evalNum(t, e, "cumsum(ones(100,1))[100, 1]")
	if last != 100 {
		t.Fatalf("cumsum last %g", last)
	}
}

func TestLoadSaveThroughREPL(t *testing.T) {
	e := env(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	if err := os.WriteFile(path, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(`m <- load.dense("` + path + `")`); err != nil {
		t.Fatal(err)
	}
	if got := evalNum(t, e, "sum(m)"); got != 10 {
		t.Fatalf("loaded sum %g", got)
	}
	out := filepath.Join(dir, "o.csv")
	if _, err := e.Eval(`save.csv(m, "` + out + `")`); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsAreRecoverable(t *testing.T) {
	e := env(t)
	bad := []string{
		"1 +",                      // parse error
		"nosuchfn(1)",              // unknown function
		"x",                        // unknown variable
		`sum(1)`,                   // type error
		"rnorm.matrix(10,2) %*% 3", // matmul with scalar
		`"unterminated`,            // lex error
	}
	for _, src := range bad {
		if _, err := e.Eval(src); err == nil {
			t.Fatalf("%q did not error", src)
		}
	}
	// Shape panics surface as errors, not crashes.
	if _, err := e.Eval("a <- rnorm.matrix(100, 2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval("b <- rnorm.matrix(100, 3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval("a + b"); err == nil {
		t.Fatal("shape mismatch did not error")
	}
	// Session still usable afterwards.
	if got := evalNum(t, e, "sum(ones(10, 1))"); got != 10 {
		t.Fatalf("session broken after error: %g", got)
	}
}

func TestFormatOutputs(t *testing.T) {
	e := env(t)
	v, _ := e.Eval("1 + 1")
	out, err := e.Format(v)
	if err != nil || out != "[1] 2" {
		t.Fatalf("scalar format %q %v", out, err)
	}
	m, _ := e.Eval("ones(3, 2)")
	out, err = e.Format(m)
	if err != nil || !strings.Contains(out, "[1,]") {
		t.Fatalf("small matrix format %q %v", out, err)
	}
	big, _ := e.Eval("rnorm.matrix(10000, 3)")
	out, err = e.Format(big)
	if err != nil || !strings.Contains(out, "10000 x 3") {
		t.Fatalf("big matrix format %q %v", out, err)
	}
	blank, _ := e.Eval("   # just a comment")
	out, _ = e.Format(blank)
	if out != "" {
		t.Fatalf("comment produced output %q", out)
	}
}

// TestFormatNonFiniteParity: NaN and ±Inf scalars print in R's spelling
// (NaN, Inf, -Inf — not Go's "+Inf").
func TestFormatNonFiniteParity(t *testing.T) {
	e := env(t)
	cases := []struct {
		src  string
		want string
	}{
		{"sum(log(zeros(64, 1)))", "[1] -Inf"},
		{"sum(exp(ones(64, 1) * 1000))", "[1] Inf"},
		{"sum(sqrt(0 - ones(64, 1)))", "[1] NaN"},
	}
	for _, c := range cases {
		v, err := e.Eval(c.src)
		if err != nil {
			t.Fatalf("eval %q: %v", c.src, err)
		}
		out, err := e.Format(v)
		if err != nil {
			t.Fatalf("format %q: %v", c.src, err)
		}
		if out != c.want {
			t.Errorf("%q printed %q, want %q", c.src, out, c.want)
		}
	}
}

// TestDeferredScalars pins what makes a value a scalar. A reduction stays
// a pending sink yet serves as a numeric argument, directly or through
// scalar arithmetic; a 1×1 matrix that is not a reduction prints as a
// matrix, as R prints it.
func TestDeferredScalars(t *testing.T) {
	e := env(t)
	show := func(src string) string {
		t.Helper()
		v, err := e.Eval(src)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		out, err := e.Format(v)
		if err != nil {
			t.Fatalf("format %q: %v", src, err)
		}
		return out
	}
	show("x <- ones(100, 2)")
	show("n <- sum(x) / 20")
	v, err := e.Eval("runif.matrix(n, 2, 0, 1, 7)")
	if err != nil {
		t.Fatalf("reduction as a numeric argument: %v", err)
	}
	if r, c := v.Mat.Dim(); r != 10 || c != 2 {
		t.Fatalf("runif.matrix(n, 2) is %d x %d, want 10 x 2", r, c)
	}
	if got := show("ones(-n + 15, 1)"); !strings.Contains(got, "[5,]") || strings.Contains(got, "[6,]") {
		t.Fatalf("ones(-n + 15, 1) printed %q, want 5 rows", got)
	}
	show("y <- ones(100, 1)")
	for src, want := range map[string]string{
		"sum(y)":         "[1] 100",
		"sqrt(sum(y))":   "[1] 10",
		"crossprod(y)":   "[1,]        100",
		"colSums(y)":     "[1,]        100",
		"t(y) %*% y":     "[1,]        100",
		"sum(y) > 50":    "[1] 1",
		"mean(y) * 2":    "[1] 2",
		"ones(1, 1) * 3": "[1,]          3",
	} {
		if got := show(src); got != want {
			t.Errorf("%s printed %q, want %q", src, got, want)
		}
	}
}

func TestExplainThroughREPL(t *testing.T) {
	e := env(t)
	if _, err := e.Eval("x <- rnorm.matrix(2000, 2)"); err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval("explain(sqrt(abs(x)))")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.Str, "sapply") {
		t.Fatalf("explain output: %q", v.Str)
	}
}
