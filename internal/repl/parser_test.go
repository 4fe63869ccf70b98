package repl

import (
	"testing"
)

func parseOK(t *testing.T, src string) node {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return n
}

func TestParsePrecedence(t *testing.T) {
	// a + b * c parses as a + (b*c).
	n := parseOK(t, "a + b * c").(*binNode)
	if n.op != "+" {
		t.Fatalf("root %q", n.op)
	}
	r := n.r.(*binNode)
	if r.op != "*" {
		t.Fatalf("rhs %q", r.op)
	}
	// Comparison binds looser than arithmetic.
	n = parseOK(t, "a + 1 < b - 2").(*binNode)
	if n.op != "<" {
		t.Fatalf("root %q", n.op)
	}
	// %*% binds tighter than *.
	n = parseOK(t, "a * b %*% c").(*binNode)
	if n.op != "*" {
		t.Fatalf("root %q", n.op)
	}
	if n.r.(*binNode).op != "%*%" {
		t.Fatal("matmul should bind tighter than *")
	}
}

func TestParseAssignAndCalls(t *testing.T) {
	a := parseOK(t, "x <- f(1, g(2), \"s\")").(*assignNode)
	if a.name != "x" {
		t.Fatalf("assign name %q", a.name)
	}
	call := a.rhs.(*callNode)
	if call.name != "f" || len(call.args) != 3 {
		t.Fatalf("call %q/%d", call.name, len(call.args))
	}
	if call.args[1].(*callNode).name != "g" {
		t.Fatal("nested call lost")
	}
	if call.args[2].(*strNode).v != "s" {
		t.Fatal("string arg lost")
	}
	// '=' also assigns.
	if _, ok := parseOK(t, "y = 3").(*assignNode); !ok {
		t.Fatal("= assignment not parsed")
	}
	// Dotted identifiers.
	if parseOK(t, "runif.matrix(2, 2)").(*callNode).name != "runif.matrix" {
		t.Fatal("dotted name")
	}
}

func TestParseIndexForms(t *testing.T) {
	ix := parseOK(t, "x[1, 2]").(*indexNode)
	if ix.rows == nil || ix.cols == nil {
		t.Fatal("element access")
	}
	ix = parseOK(t, "x[, 3]").(*indexNode)
	if ix.rows != nil || ix.cols == nil {
		t.Fatal("column slice")
	}
	ix = parseOK(t, "x[7, ]").(*indexNode)
	if ix.rows == nil || ix.cols != nil {
		t.Fatal("row slice")
	}
	// Chained indexing.
	outer := parseOK(t, "x[, 1][2, 1]").(*indexNode)
	if _, ok := outer.x.(*indexNode); !ok {
		t.Fatal("chained index")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"f(1,", "x[1]", "(1 + 2", "1 2", "x <-", "@", "\"abc",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("%q parsed without error", src)
		}
	}
}

// replSeeds are the statements of repl_test.go and estimate_test.go, the
// seed corpus of the repl fuzzers.
var replSeeds = []string{
	"1 + 2 * 3", "(1 + 2) * 3", "2 ^ 3 ^ 2", "-2 ^ 2", "10 %% 3", "1 < 2",
	"3 <= 2", "1 == 1 & 2 != 3", "!1", "1e3 + 1_000", "x <- 41", "x + 1", "y",
	"x <- rnorm.matrix(5000, 4, 0, 1, 7)", "nrow(x)", "ncol(x)",
	`centered <- sweep(x, 2, colMeans(x), "-")`,
	"sum(centered * centered) / (length(x) - 1)", "g <- crossprod(x)",
	"mean(abs(x) > 2)", "e <- x[3, 2]", "c1 <- x[, 1]", "centers <- head(x, 3)",
	`d <- inner.prod(x, t(centers), "euclidean", "+")`, "i <- which.min.row(d)",
	`cnt <- groupby.row(ones(3000, 1), i, 3, "+")`, `newc <- sweep(sums, 1, cnt, "/")`,
	`s <- agg.row(x, "+")`, `sum(mapply(x, x, "-"))`,
	"v <- round(runif.matrix(1000, 1, 0, 3, 9))", "table(v)", "unique(v)",
	"cumsum(ones(100,1))[100, 1]", `m <- load.dense("m.csv")`, `save.csv(m, "o.csv")`,
	"1 +", "nosuchfn(1)", `sum(1)`, "rnorm.matrix(10,2) %*% 3", `"unterminated`,
	"   # just a comment", "sum(log(zeros(64, 1)))", "explain(sqrt(abs(x)))",
	"n <- 250", "x <- runif.matrix(n * 2, 2, 0, 1, 7)", "y <- ones(nrow(x), 3)",
	"c <- t(a) %*% b", "y <- unknown.function(x)", "z + 1",
	"y <- runif.matrix(nosuch, 2, 0, 1, 7)", "x <-", "rowSums(x)", "max(x)",
	"x %*% colSums(x)", "x %*% t(colSums(x))", "set.cache(x)", "x[1, 2]",
}

// FuzzReplParse: every statement a serving client sends reaches Parse, so on
// arbitrary input it must return a node or an error, never panic. It parses
// only — evaluation can allocate without bound.
func FuzzReplParse(f *testing.F) {
	for _, seed := range replSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if n, err := Parse(src); err != nil && n != nil {
			t.Fatalf("Parse(%q) returned both node %T and error %v", src, n, err)
		}
	})
}

func TestLexerDetails(t *testing.T) {
	toks, err := lex(`x<-1.5e-3 + .5 # comment`)
	if err != nil {
		t.Fatal(err)
	}
	// ident, <-, num, +, num, EOF
	if len(toks) != 6 {
		t.Fatalf("%d tokens", len(toks))
	}
	if toks[2].num != 1.5e-3 || toks[4].num != 0.5 {
		t.Fatalf("numbers %g %g", toks[2].num, toks[4].num)
	}
	toks, err = lex(`'single' "double \" esc"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "single" || toks[1].text != `double " esc` {
		t.Fatalf("strings %q %q", toks[0].text, toks[1].text)
	}
}
