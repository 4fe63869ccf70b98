package flashr_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	flashr "repro"
	"repro/internal/core"
	"repro/internal/safs"
	"repro/ml"
)

// TestSinksIndependentOfWorkers: the scheduler dispatches one partition at a
// time and merges the per-partition sink partials in partition order, so
// every in-engine sink result — and every model fitted from them — is a
// left fold that depends on the data, the program and the partition height,
// never on the worker count. The leaf spans 16 default-height partitions, so
// workers race for partitions and commit out of order at every count but 1.
// The seeded generators draw each row from a (seed, row) stream, so their
// data does not depend on the partition height or the worker count either.
func TestSinksIndependentOfWorkers(t *testing.T) {
	const n, p = 16 * core.DefaultPartRows, 4
	workers := []int{1, 2, 3, 8}
	for _, em := range []bool{false, true} {
		t.Run(map[bool]string{false: "im", true: "em"}[em], func(t *testing.T) {
			var ref map[string][]float64
			for _, w := range workers {
				opts := flashr.Options{Workers: w}
				if em {
					opts.EM = true
					opts.SSDDirs = safs.DriveDirs(t.TempDir(), 2)
				}
				got := sinkAnswers(t, opts, n, p)
				if ref == nil {
					ref = got
					continue
				}
				compareBits(t, fmt.Sprintf("workers=%d", w), got, fmt.Sprintf("workers=%d", workers[0]), ref)
			}
		})
	}
	t.Run("generators", func(t *testing.T) {
		var ref map[string][]float64
		var refName string
		for _, pr := range []int{256, 1024, 0} {
			for _, w := range []int{1, 8} {
				s, err := flashr.NewSession(flashr.Options{Workers: w, PartRows: pr})
				if err != nil {
					t.Fatal(err)
				}
				got := map[string][]float64{}
				x, err := s.Rnorm(5000, 3, 0, 1, 7)
				if err != nil {
					t.Fatal(err)
				}
				got["rnorm"] = asDense(t, x)
				u, err := s.Runif(5000, 3, -1, 2, 7)
				if err != nil {
					t.Fatal(err)
				}
				got["runif"] = asDense(t, u)
				s.Close()
				name := fmt.Sprintf("partrows=%d/workers=%d", pr, w)
				if ref == nil {
					ref, refName = got, name
					continue
				}
				compareBits(t, name, got, refName, ref)
			}
		}
	})
}

// sinkAnswers runs every sink kind and two model fits over a seeded n×p
// leaf in a fresh session and returns each answer's values by name.
func sinkAnswers(t *testing.T, opts flashr.Options, n int64, p int) map[string][]float64 {
	t.Helper()
	s, err := flashr.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, y := wideData(t, s, n, p)
	out := map[string][]float64{}
	sum, err := flashr.Sum(flashr.Mul(x, x)).Float()
	if err != nil {
		t.Fatal(err)
	}
	out["sum"] = []float64{sum}
	out["colSums"] = asDense(t, flashr.ColSums(x))
	out["crossprod"] = asDense(t, flashr.CrossProd(x))
	out["groupByRow"] = asDense(t, flashr.GroupByRow(x, flashr.RowWhichMin(x), p, "+"))
	// Values k/10 are not dyadic, so grouping their sum differently would
	// change its bits.
	tenths := flashr.Div(flashr.Round(flashr.Mul(x, 3)), 10)
	keys, counts, err := flashr.TableOf(tenths)
	if err != nil {
		t.Fatal(err)
	}
	out["table.keys"] = keys
	for _, c := range counts {
		out["table.counts"] = append(out["table.counts"], float64(c))
	}
	keys, folds, err := flashr.GroupBy(tenths, "+")
	if err != nil {
		t.Fatal(err)
	}
	out["groupBy.keys"], out["groupBy.folds"] = keys, folds
	lm, err := ml.LogisticRegressionLBFGS(s, x, y, ml.LogisticOptions{MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	out["logistic"] = append(lm.W, lm.LogLoss)
	km, err := ml.KMeans(s, x, 3, ml.KMeansOptions{MaxIter: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out["kmeans"] = append(km.Centers.Data, km.Objective)
	return out
}

func asDense(t *testing.T, x *flashr.FM) []float64 {
	t.Helper()
	d, err := x.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	return d.Data
}

// compareBits reports every answer of got whose values differ from ref's
// bit for bit (one error per answer, so a run lists all that moved).
func compareBits(t *testing.T, name string, got map[string][]float64, refName string, ref map[string][]float64) {
	t.Helper()
	names := make([]string, 0, len(ref))
	for k := range ref {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := got[k], ref[k]
		if len(a) != len(b) {
			t.Errorf("%s: %s has %d values, %s has %d", name, k, len(a), refName, len(b))
			continue
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Errorf("%s: %s[%d] = %v (%016x), %s has %v (%016x)",
					name, k, i, a[i], math.Float64bits(a[i]), refName, b[i], math.Float64bits(b[i]))
				break
			}
		}
	}
}
