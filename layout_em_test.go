package flashr_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	flashr "repro"
	"repro/internal/safs"
	"repro/ml"
)

// wideSession opens a session at the equivalence grid's shape (PartRows
// 256) with the given worker count, on a 2-drive array when em is set.
func wideSession(t *testing.T, em bool, workers int) *flashr.Session {
	t.Helper()
	opts := flashr.Options{Workers: workers, PartRows: 256}
	if em {
		opts.EM = true
		opts.SSDDirs = safs.DriveDirs(t.TempDir(), 2)
	}
	s, err := flashr.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// wideData generates an n×p standard-normal X and 0/1 labels drawn from the
// same per-row streams.
func wideData(t *testing.T, s *flashr.Session, n int64, p int) (x, y *flashr.FM) {
	t.Helper()
	x, err := s.GenerateSeeded(n, p, 77, func(rng *rand.Rand, row []float64) {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err = s.GenerateSeeded(n, 1, 77, func(rng *rand.Rand, row []float64) {
		if rng.NormFloat64()+0.5*rng.NormFloat64() > 0 {
			row[0] = 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, y
}

// reopenNamed saves x to the session's array under name and reopens it
// with OpenNamed, as a matrix saved by another process would be.
func reopenNamed(t *testing.T, s *flashr.Session, x *flashr.FM, name string) *flashr.FM {
	t.Helper()
	if err := s.SaveNamedCtx(context.Background(), x, name); err != nil {
		t.Fatal(err)
	}
	named, err := s.OpenNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	return named
}

// TestWideEMLeafReadAhead: a matrix wider than 32 columns on the array is
// one flat store, whether the engine created it or it was reopened with
// OpenNamed, so every partition of a pass over it is read ahead
// asynchronously and none is read cold at use time.
func TestWideEMLeafReadAhead(t *testing.T) {
	const n, p = 2000, 40
	for _, leaf := range []string{"generated", "named"} {
		t.Run(leaf, func(t *testing.T) {
			s := wideSession(t, true, 2)
			x, _ := wideData(t, s, n, p)
			if leaf == "named" {
				x = reopenNamed(t, s, x, "X")
			}
			before := s.TotalMaterializeStats()
			if _, err := flashr.ColSums(flashr.Gt(x, 0.3)).AsVector(); err != nil {
				t.Fatal(err)
			}
			st := s.TotalMaterializeStats()
			st.Sub(before)
			nparts := int64((n + 255) / 256)
			if st.PrefetchMisses != 0 || st.PrefetchHits != nparts {
				t.Fatalf("prefetch hits=%d misses=%d, want %d/0", st.PrefetchHits, st.PrefetchMisses, nparts)
			}
		})
	}
}

// TestWideEMLayoutMatchesIM is the layout oracle at widths the equivalence
// grid never draws (it generates p ≤ 4): the benchmark's EM step shapes
// over a wide X give bit-identical results on the SSD array and in memory,
// with X generated on the array or saved and reopened as a named matrix.
func TestWideEMLayoutMatchesIM(t *testing.T) {
	const n = 1500 // six partitions, the last one partial
	for _, p := range []int{33, 40, 64} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			want := wideSteps(t, wideSession(t, false, 4), n, p, false)
			for _, named := range []bool{false, true} {
				got := wideSteps(t, wideSession(t, true, 4), n, p, named)
				for _, step := range []string{"logistic", "threshold", "map_save", "cumsum"} {
					g, w := got[step], want[step]
					if len(g) != len(w) {
						t.Fatalf("%s (named=%v): %d values on EM, %d in memory", step, named, len(g), len(w))
					}
					for i := range w {
						if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
							t.Fatalf("%s[%d] (named=%v): EM %v, in memory %v (bitwise)", step, i, named, g[i], w[i])
						}
					}
				}
			}
		})
	}
}

// wideSteps runs one round of the benchmark's EM step shapes and returns
// each step's results. With named set, X is saved and reopened with
// OpenNamed first.
func wideSteps(t *testing.T, s *flashr.Session, n int64, p int, named bool) map[string][]float64 {
	t.Helper()
	x, y := wideData(t, s, n, p)
	if named {
		x = reopenNamed(t, s, x, "X")
	}
	vec := func(m *flashr.FM) []float64 {
		t.Helper()
		v, err := m.AsVector()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	out := map[string][]float64{}

	m, err := ml.LogisticRegressionLBFGS(s, x, y, ml.LogisticOptions{MaxIter: 2, Tol: 1e-12, L2: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	out["logistic"] = append(append([]float64(nil), m.W...), m.LogLoss)

	out["threshold"] = vec(flashr.ColSums(flashr.Gt(x, 0.4)))

	z := flashr.Sigmoid(flashr.Add(flashr.Mul(x, 1.02), -0.03)).SetCache(true)
	fused := flashr.ColSums(z)
	if err := z.MaterializeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	out["map_save"] = append(vec(fused), vec(flashr.ColSums(flashr.Mul(z, 0.5)))...)
	if err := z.Free(); err != nil {
		t.Fatal(err)
	}

	c := flashr.Cumsum(flashr.Mul(x, 0.97))
	total := flashr.ColSums(flashr.Mul(x, 0.97))
	if err := c.MaterializeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	last, err := flashr.GetRows(c, []int64{n - 1})
	if err != nil {
		t.Fatal(err)
	}
	out["cumsum"] = append(vec(total), last.Data...)
	if err := c.Free(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEMFreeReleasesArray: an EM session materializes and frees
// Cumsum(x*c) ten times. Every round's result has the same bits; after each
// Free the drives hold only x's segments and the process only the
// descriptors it held with x alone, and Close leaves x's segments.
func TestEMFreeReleasesArray(t *testing.T) {
	const drives = 2
	root := t.TempDir()
	s, err := flashr.NewSession(flashr.Options{
		Workers: 2, PartRows: 256, EM: true, SSDDirs: safs.DriveDirs(root, drives), ResultCacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, err := s.Rnorm(3*256+77, 40, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	leaf := arrayFiles(t, root, drives)
	fdBase := openFDs()
	if len(leaf) != drives {
		t.Fatalf("x is stored as %v, want one segment per drive", leaf)
	}
	var first []uint64
	for round := 0; round < 10; round++ {
		c := flashr.Cumsum(flashr.Mul(x, 1.5))
		if err := c.MaterializeCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		d, err := c.AsDense()
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, len(d.Data))
		for i, v := range d.Data {
			bits[i] = math.Float64bits(v)
		}
		if round == 0 {
			first = bits
		} else if fmt.Sprint(bits) != fmt.Sprint(first) {
			t.Fatalf("round %d: Cumsum(x*c) differs from round 0", round)
		}
		if err := c.Free(); err != nil {
			t.Fatal(err)
		}
		if fdBase >= 0 {
			if n := openFDs() - fdBase; n > 0 {
				t.Fatalf("round %d: %d descriptors open beyond x's", round, n)
			}
		}
		if got := arrayFiles(t, root, drives); fmt.Sprint(got) != fmt.Sprint(leaf) {
			t.Fatalf("round %d: after Free the array holds %v, want x's segments %v", round, got, leaf)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arrayFiles(t, root, drives); fmt.Sprint(got) != fmt.Sprint(leaf) {
		t.Fatalf("after Close the array holds %v, want x's segments %v", got, leaf)
	}
}

// arrayFiles lists the files in the n drive directories under root, sorted.
func arrayFiles(t *testing.T, root string, n int) []string {
	t.Helper()
	var out []string
	for _, d := range safs.DriveDirs(root, n) {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			out = append(out, filepath.Join(filepath.Base(d), e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// openFDs counts this process's open file descriptors, or returns -1 where
// /proc/self/fd cannot be read.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
