package flashr

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dense"
)

// Regression tests for result-cache invalidation: after an in-place `[]<-`
// mutation or a SetNamed overwrite between materializations, a warm session
// (cache populated over the old contents) must produce bit-for-bit the same
// results as a cold session that only ever saw the new contents.

func invalDense(r, c int, seed int64) *dense.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := dense.New(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// invalProbe computes a fingerprint of several expressions over x: a sink, a
// column sink, and a tall output. Rebuilt from scratch each call so a warm
// session's structurally identical rebuild is the cache-hit candidate.
func invalProbe(t *testing.T, x *FM) []float64 {
	t.Helper()
	e := Pmax(Mul(x, 3.0), Neg(x))
	v, err := Sum(Round(e)).Float()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ColSums(Round(e)).AsVector()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Square(x).AsDense()
	if err != nil {
		t.Fatal(err)
	}
	out := append([]float64{v}, cs...)
	return append(out, d.Data...)
}

func bitsMatch(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fingerprint length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: word %d = %v, want %v (stale cache?)", name, i, got[i], want[i])
		}
	}
}

// TestSetElementMatchesColdSession: materialize, mutate the leaf with []<-,
// re-materialize the same structures — the warm session must agree exactly
// with a cold session over the already-mutated data.
func TestSetElementMatchesColdSession(t *testing.T) {
	d0 := invalDense(1400, 3, 21)

	warm, err := NewSession(Options{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	x, err := warm.FromDense(d0)
	if err != nil {
		t.Fatal(err)
	}
	invalProbe(t, x) // populate the cache over the pre-mutation contents
	if entries, _ := warm.Engine().ResultCacheStats(); entries == 0 {
		t.Fatal("probe left no cache entries")
	}

	// R's x[i, j] <- v, twice, including a partition past the first.
	if err := x.SetElement(2, 1, 42.5); err != nil {
		t.Fatal(err)
	}
	if err := x.SetElement(1000, 0, -7.25); err != nil {
		t.Fatal(err)
	}
	before := warm.TotalMaterializeStats()
	got := invalProbe(t, x)
	if d := warm.TotalMaterializeStats().Sub(before); d.CacheHits != 0 {
		t.Fatalf("post-mutation probe served %d cache hits over stale contents", d.CacheHits)
	}

	d1 := invalDense(1400, 3, 21)
	d1.Set(2, 1, 42.5)
	d1.Set(1000, 0, -7.25)
	cold, err := NewSession(Options{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cx, err := cold.FromDense(d1)
	if err != nil {
		t.Fatal(err)
	}
	bitsMatch(t, "set-element", got, invalProbe(t, cx))
}

// TestSetNamedMatchesColdSession: results cached over leaves opened from a
// named on-array matrix must be invalidated when SetNamed overwrites the
// name's files, and the already-open handle must then compute over the new
// bytes exactly as a cold session does.
func TestSetNamedMatchesColdSession(t *testing.T) {
	dir := t.TempDir()
	dirs := []string{filepath.Join(dir, "d0"), filepath.Join(dir, "d1")}
	d0 := invalDense(1200, 2, 31)
	d1 := invalDense(1200, 2, 32)

	warm, err := NewSession(Options{Workers: 4, PartRows: 256, EM: true, SSDDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := warm.FromDense(d0)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.SaveNamedCtx(context.Background(), seed, "m"); err != nil {
		t.Fatal(err)
	}
	x, err := warm.OpenNamed("m")
	if err != nil {
		t.Fatal(err)
	}
	old := invalProbe(t, x) // cached over the original file contents

	repl, err := warm.FromDense(d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.SetNamed(repl, "m"); err != nil {
		t.Fatal(err)
	}
	// The pre-overwrite handle's checksum table describes the replaced
	// bytes, so forcing it must fail verification loudly — and must not be
	// short-circuited by a stale cache entry silently returning the old
	// value (the regression this test pins down).
	before := warm.TotalMaterializeStats()
	if v, err := Sum(Round(Pmax(Mul(x, 3.0), Neg(x)))).Float(); err == nil {
		t.Fatalf("pre-overwrite handle materialized without error (value %v); stale cache served?", v)
	}
	if d := warm.TotalMaterializeStats().Sub(before); d.CacheHits != 0 {
		t.Fatalf("post-SetNamed probe served %d cache hits over stale contents", d.CacheHits)
	}
	reopened, err := warm.OpenNamed("m")
	if err != nil {
		t.Fatal(err)
	}
	gotReopen := invalProbe(t, reopened)
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	cold, err := NewSession(Options{Workers: 4, PartRows: 256, EM: true, SSDDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cx, err := cold.OpenNamed("m")
	if err != nil {
		t.Fatal(err)
	}
	want := invalProbe(t, cx)
	bitsMatch(t, "set-named (reopened)", gotReopen, want)

	// Sanity: the overwrite actually changed the data.
	same := true
	for i := range old {
		if math.Float64bits(old[i]) != math.Float64bits(want[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("replacement data produced an identical fingerprint; test proves nothing")
	}
}
