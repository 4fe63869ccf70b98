package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/safs"
)

// TestBuildTasksCoverage: for any (nparts, super, workers) — including the
// degenerate and hostile corners — the dispatch units must cover [0, nparts)
// exactly once, stay in bounds, and place every super-task strictly before
// every single. A negative workers count used to make the tail reservation
// negative and extend super ranges past nparts.
func TestBuildTasksCoverage(t *testing.T) {
	cases := []struct{ nparts, super, workers int }{
		{0, 4, 2},    // empty pass
		{4, 2, -1},   // negative workers (the out-of-bounds regression)
		{4, 2, 0},    // zero workers
		{10, 4, 1},   // non-divisible remainder
		{3, 8, 2},    // super > nparts
		{5, 2, 4},    // nparts < workers*super
		{1, 1, 1},    // single partition
		{16, 4, 4},   // exact division
		{13, 5, 3},   // everything ragged
		{7, 0, 3},    // zero super
		{64, 2, 8},   // larger pass
		{-3, 2, 2},   // negative nparts
		{6, -2, -2},  // all negative
		{100, 7, 13}, // mutually prime
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n%d_s%d_w%d", tc.nparts, tc.super, tc.workers)
		t.Run(name, func(t *testing.T) {
			tasks := buildTasks(tc.nparts, tc.super, tc.workers)
			n := tc.nparts
			if n < 0 {
				n = 0
			}
			seen := make([]bool, n)
			sawSingle := false
			for _, tr := range tasks {
				if tr.lo >= tr.hi {
					t.Fatalf("empty/inverted range %+v", tr)
				}
				if tr.lo < 0 || tr.hi > n {
					t.Fatalf("range %+v out of [0,%d)", tr, n)
				}
				if tr.hi-tr.lo > 1 && sawSingle {
					t.Fatalf("super-task %+v after a single", tr)
				}
				if tr.hi-tr.lo == 1 {
					sawSingle = true
				}
				for p := tr.lo; p < tr.hi; p++ {
					if seen[p] {
						t.Fatalf("partition %d covered twice", p)
					}
					seen[p] = true
				}
			}
			for p, s := range seen {
				if !s {
					t.Fatalf("partition %d not covered", p)
				}
			}
		})
	}
}

// safsLeaf builds an nrow×ncol SAFS-backed leaf filled from seed.
func safsLeaf(t testing.TB, fs *safs.FS, name string, nrow int64, ncol, partRows int, seed int64) *Mat {
	t.Helper()
	st, err := matrix.NewSAFSStore(fs, name, nrow, ncol, partRows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]float64, partRows*ncol)
	for p := 0; p < st.NumParts(); p++ {
		rows := matrix.PartRowsOf(nrow, partRows, p)
		for i := range buf[:rows*ncol] {
			buf[i] = rng.NormFloat64()
		}
		if err := st.WritePart(p, buf[:rows*ncol]); err != nil {
			t.Fatal(err)
		}
	}
	return NewLeaf(st, matrix.F64)
}

// TestPrefetchCrossesRangeBoundary: when a worker reaches the last partition
// of its claimed range it must claim the next range and issue that range's
// first prefetch before computing — previously read-ahead stopped at the
// boundary (`p+1 < tr.hi`), making the first partition of every later range a
// guaranteed cold read.
func TestPrefetchCrossesRangeBoundary(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const partRows, nparts = 256, 4
	leaf := safsLeaf(t, fs, "leaf", partRows*nparts, 3, partRows, 21)

	e, err := NewEngine(Config{Workers: 1, PartRows: partRows, FS: fs, SuperParts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Workers=1 ⇒ tasks [0,2) [2,3) [3,4) and a strictly sequential event log.
	var events []string
	e.testSchedEvent = func(kind string, p int) { events = append(events, fmt.Sprintf("%s:%d", kind, p)) }
	out := Sapply(leaf, UnarySquare)
	if err := e.Materialize([]*Mat{out}, nil); err != nil {
		t.Fatal(err)
	}
	e.testSchedEvent = nil

	idx := func(ev string) int {
		for i, got := range events {
			if got == ev {
				return i
			}
		}
		t.Fatalf("event %q missing from %v", ev, events)
		return -1
	}
	for p := 0; p < nparts; p++ {
		if idx(fmt.Sprintf("prefetch:%d", p)) > idx(fmt.Sprintf("process:%d", p)) {
			t.Fatalf("partition %d processed before its prefetch: %v", p, events)
		}
	}
	// The boundary cases: partition 2 opens range [2,3) and must be prefetched
	// before partition 1 (the end of range [0,2)) is processed; likewise 3
	// before 2.
	if idx("prefetch:2") > idx("process:1") {
		t.Fatalf("read-ahead stopped at the range boundary: %v", events)
	}
	if idx("prefetch:3") > idx("process:2") {
		t.Fatalf("read-ahead stopped at the second boundary: %v", events)
	}
	// Accounting stays exact: every load was a prefetch hit.
	ms := e.LastMaterializeStats()
	if ms.PrefetchHits != nparts || ms.PrefetchMisses != 0 {
		t.Fatalf("prefetch accounting hits=%d misses=%d, want %d/0", ms.PrefetchHits, ms.PrefetchMisses, nparts)
	}
	if ms.PrefetchAbandoned != 0 {
		t.Fatalf("clean pass abandoned %d prefetches", ms.PrefetchAbandoned)
	}
}

// TestWorkerExitDrainsPrefetches: a worker that exits early (here: its own
// read failure on partition 0) must drain its in-flight prefetches and
// return the buffers — previously the pending map was abandoned with async
// reads still writing into pooled buffers.
func TestWorkerExitDrainsPrefetches(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const partRows = 256
	leaf := safsLeaf(t, fs, "leaf", partRows*8, 3, partRows, 22)

	e, err := NewEngine(Config{Workers: 1, PartRows: partRows, FS: fs, SuperParts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every read fails past its retries, so the worker fails on partition
	// 0's load right after issuing partition 1's read-ahead.
	fs.InjectFaults(&safs.Faults{Seed: 1, ReadErrRate: 1})
	out := Sapply(leaf, UnarySquare)
	err = e.Materialize([]*Mat{out}, nil)
	if !errors.Is(err, safs.ErrInjected) {
		t.Fatalf("want injected read failure, got %v", err)
	}
	// The worker had prefetched partition 1 before failing on partition 0's
	// read; the exit path must have drained it (and only it).
	ms := e.LastMaterializeStats()
	if ms.PrefetchAbandoned != 1 {
		t.Fatalf("abandoned prefetches = %d, want 1", ms.PrefetchAbandoned)
	}
	// Engine and pools stay usable: the same pass runs clean once the faults
	// are cleared, and a clean pass abandons nothing.
	fs.InjectFaults(nil)
	out2 := Sapply(leaf, UnarySquare)
	got, err := e.ToDense(out2)
	if err != nil {
		t.Fatalf("engine unusable after drained failure: %v", err)
	}
	if ms2 := e.LastMaterializeStats(); ms2.PrefetchAbandoned != 0 {
		t.Fatalf("clean pass abandoned %d prefetches", ms2.PrefetchAbandoned)
	}
	want, err := e.ToDense(Sapply(leaf, UnarySquare))
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(got, want, 0) {
		t.Fatal("post-failure pass produced wrong data")
	}
}

// TestSinkReductionDeterministic: materializing the same DAG repeatedly must
// produce bit-identical sink results even though workers race for task
// ranges. Partials fold per task and commit in task-index order; before the
// ordered merge they folded per worker, so the floating-point summation
// order — and the low bits of every aggregate — depended on which worker won
// which range.
func TestSinkReductionDeterministic(t *testing.T) {
	const (
		partRows = 64
		nparts   = 48
		ncol     = 3
	)
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	leaf := safsLeaf(t, fs, "det", int64(partRows*nparts), ncol, partRows, 99)
	e, err := NewEngine(Config{Workers: 8, PartRows: partRows, FS: fs, SuperParts: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	var wantCols []float64
	for it := 0; it < 20; it++ {
		sum := Agg(Sapply(leaf, UnarySquare), AggSum)
		cols := AggCol(leaf, AggSum)
		if err := e.Materialize(nil, []*Sink{sum, cols}); err != nil {
			t.Fatal(err)
		}
		gotSum := sum.Result().At(0, 0)
		gotCols := make([]float64, ncol)
		for j := range gotCols {
			gotCols[j] = cols.Result().At(0, j)
		}
		if it == 0 {
			wantSum, wantCols = gotSum, gotCols
			continue
		}
		if gotSum != wantSum {
			t.Fatalf("pass %d: sum %.17g != first pass %.17g", it, gotSum, wantSum)
		}
		for j := range gotCols {
			if gotCols[j] != wantCols[j] {
				t.Fatalf("pass %d: colSum[%d] %.17g != first pass %.17g", it, j, gotCols[j], wantCols[j])
			}
		}
	}
}
