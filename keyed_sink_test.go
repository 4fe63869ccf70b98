package flashr

import (
	"math"
	"testing"

	"repro/internal/dense"
)

// TestKeyedSinksNaN pins table/unique/groupby on NaN and signed-zero input:
// every NaN is one key, sorted first as sort.Float64s puts it, with its true
// count or fold, and 0 and -0 are one key. It runs the same values through a
// small matrix (the in-memory fold), a tall one (a pass of several
// partitions) and a 2-shard session (the shards' partials merged in shard
// order).
func TestKeyedSinksNaN(t *testing.T) {
	const reps = 300 // 2,400 rows: ten 256-row partitions, split over two shards
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pattern := []float64{nan, 1, nan, 1, nan, 2, negZero, 0}
	var vals []float64
	for i := 0; i < reps; i++ {
		vals = append(vals, pattern...)
	}
	wantKeys := []float64{nan, 0, 1, 2}
	wantCounts := []int64{3 * reps, 2 * reps, 2 * reps, reps}
	wantSums := []float64{nan, 0, 2 * reps, 2 * reps}

	check := func(t *testing.T, x *FM) {
		t.Helper()
		keys, counts, err := TableOf(x)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "table keys", keys, wantKeys)
		if len(counts) != len(wantCounts) {
			t.Fatalf("table counts %v, want %v", counts, wantCounts)
		}
		for i := range counts {
			if counts[i] != wantCounts[i] {
				t.Fatalf("table counts %v, want %v", counts, wantCounts)
			}
		}
		uniq, err := Unique(x)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "unique", uniq, wantKeys)
		gk, sums, err := GroupBy(x, "sum")
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "groupby keys", gk, wantKeys)
		sameBits(t, "groupby sums", sums, wantSums)
	}

	t.Run("small", func(t *testing.T) {
		s := newTestSession(t, Options{})
		check(t, s.Small(dense.FromSlice(len(vals), 1, vals)))
	})
	t.Run("tall", func(t *testing.T) {
		s := newTestSession(t, Options{Workers: 4, PartRows: 256})
		x, err := s.FromVec(vals)
		if err != nil {
			t.Fatal(err)
		}
		check(t, x)
	})
	t.Run("shard=2", func(t *testing.T) {
		s := newTestSession(t, Options{Workers: 2, PartRows: 256, Sharding: &ShardConfig{Shards: 2}})
		x, err := s.FromVec(vals)
		if err != nil {
			t.Fatal(err)
		}
		check(t, x)
		if s.TotalMaterializeStats().ShardPasses == 0 {
			t.Fatal("sharding configured but no worker passes ran")
		}
	})
}

func newTestSession(t *testing.T, opts Options) *Session {
	t.Helper()
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sameBits fails unless got and want hold the same float64 bit patterns,
// so 0 does not match -0; any NaN matches any NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %v", what, len(got), want)
	}
	for i, g := range got {
		if w := want[i]; !(g != g && w != w) && math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// BenchmarkKeyedSinks times TableOf and GroupBy over a tall in-memory column
// of 2^21 rows with the result cache off, so every iteration runs a pass.
// distinct holds one key per row, in 128 partitions of 16,384 keys at the
// default partition height; distinct/parts=2048 splits the same rows into
// 2,048 partitions of 1,024 (the merge's cost must not grow with the
// partition count); few holds 1,000 keys.
func BenchmarkKeyedSinks(b *testing.B) {
	const n = 1 << 21
	for _, c := range []struct {
		name     string
		keys     int
		partRows int
	}{{"distinct", n, 0}, {"distinct/parts=2048", n, 1024}, {"few", 1000, 0}} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i * 7919) % c.keys) // a permutation when keys == n
		}
		s, err := NewSession(Options{Workers: 2, PartRows: c.partRows, ResultCacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		x, err := s.FromVec(vals)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/table", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if keys, _, err := TableOf(x); err != nil || len(keys) != c.keys {
					b.Fatal(len(keys), err)
				}
			}
		})
		b.Run(c.name+"/groupby", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if keys, _, err := GroupBy(x, "sum"); err != nil || len(keys) != c.keys {
					b.Fatal(len(keys), err)
				}
			}
		})
		s.Close()
	}
}
